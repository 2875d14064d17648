#include "graph/encode.h"

#include <algorithm>

#include "kernel/block.h"

namespace sp::graph {

EncodedGraph
encodeGraph(const kern::Kernel &kernel, const QueryGraph &graph)
{
    EncodedGraph enc;
    encodeGraphInto(kernel, graph, enc);
    return enc;
}

void
encodeGraphInto(const kern::Kernel &kernel, const QueryGraph &graph,
                EncodedGraph &out)
{
    out.num_nodes = static_cast<int32_t>(graph.nodes.size());
    out.node_kind.resize(graph.nodes.size());
    out.syscall_tok.assign(graph.nodes.size(), 0);
    out.arg_type_tok.assign(graph.nodes.size(), 0);
    out.arg_slot_tok.assign(graph.nodes.size(), 0);
    out.target_flag.assign(graph.nodes.size(), 0);
    out.block_tokens.assign(
        graph.nodes.size() * EncodeVocab::kTokenWindow,
        kern::token::kPad);

    for (size_t i = 0; i < graph.nodes.size(); ++i) {
        const Node &node = graph.nodes[i];
        out.node_kind[i] = static_cast<int32_t>(node.kind);
        switch (node.kind) {
          case NodeKind::Syscall:
            out.syscall_tok[i] = static_cast<int32_t>(
                std::min<uint32_t>(node.syscall_id,
                                   EncodeVocab::kSyscallVocab - 1));
            break;
          case NodeKind::Argument:
            out.arg_type_tok[i] = static_cast<int32_t>(
                std::min<uint8_t>(node.arg_type_kind,
                                  EncodeVocab::kArgTypeVocab - 1));
            out.arg_slot_tok[i] = static_cast<int32_t>(
                std::min<uint16_t>(node.arg_slot,
                                   kern::token::kMaxSlots - 1));
            break;
          case NodeKind::Covered:
          case NodeKind::Alternative: {
            const auto &tokens = kernel.block(node.block).tokens;
            const size_t n = std::min<size_t>(
                tokens.size(), EncodeVocab::kTokenWindow);
            for (size_t t = 0; t < n; ++t) {
                out.block_tokens[i * EncodeVocab::kTokenWindow + t] =
                    tokens[t];
            }
            out.target_flag[i] = node.is_target ? 1 : 0;
            break;
          }
        }
    }

    for (auto &adj : out.adj) {
        adj.src.clear();
        adj.dst.clear();
    }
    for (const Edge &edge : graph.edges) {
        const auto kind = static_cast<size_t>(edge.kind);
        out.adj[kind].src.push_back(static_cast<int32_t>(edge.src));
        out.adj[kind].dst.push_back(static_cast<int32_t>(edge.dst));
        // Reverse relation.
        out.adj[kNumEdgeKinds + kind].src.push_back(
            static_cast<int32_t>(edge.dst));
        out.adj[kNumEdgeKinds + kind].dst.push_back(
            static_cast<int32_t>(edge.src));
    }

    out.argument_nodes.clear();
    out.argument_nodes.reserve(graph.argument_nodes.size());
    for (uint32_t index : graph.argument_nodes)
        out.argument_nodes.push_back(static_cast<int32_t>(index));
}

}  // namespace sp::graph
