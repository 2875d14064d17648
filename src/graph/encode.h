/**
 * @file
 * Numeric encoding of a query graph for the GNN: per-node categorical
 * feature ids (node kind, syscall id, argument type and slot, target
 * flag), fixed-width token windows of each block's synthetic assembly,
 * and per-edge-kind adjacency lists in both directions (typed message
 * passing needs the reverse edges too).
 */
#ifndef SP_GRAPH_ENCODE_H
#define SP_GRAPH_ENCODE_H

#include <array>
#include <cstdint>
#include <vector>

#include "graph/query_graph.h"

namespace sp::graph {

/** Feature vocabularies (shared between encoder and model). */
struct EncodeVocab
{
    static constexpr int32_t kNodeKinds = 4;
    static constexpr int32_t kSyscallVocab = 128;  ///< syscall id cap
    static constexpr int32_t kArgTypeVocab = 16;   ///< TypeKind cap
    static constexpr int32_t kTokenWindow = 10;    ///< block tokens kept
};

/** Adjacency of one edge relation. */
struct AdjList
{
    std::vector<int32_t> src;
    std::vector<int32_t> dst;
};

/** Encoded graph, ready to feed the model. */
struct EncodedGraph
{
    int32_t num_nodes = 0;
    std::vector<int32_t> node_kind;
    std::vector<int32_t> syscall_tok;  ///< 0 when not a syscall node
    std::vector<int32_t> arg_type_tok; ///< 0 when not an argument node
    std::vector<int32_t> arg_slot_tok; ///< 0 when not an argument node
    std::vector<int32_t> target_flag;  ///< 1 on target alternatives
    /** [num_nodes * kTokenWindow], kPad-padded; zeros off block nodes. */
    std::vector<int32_t> block_tokens;
    /**
     * Relations 0..kNumEdgeKinds-1 are the forward edge kinds;
     * kNumEdgeKinds..2*kNumEdgeKinds-1 their reverses.
     */
    std::array<AdjList, kNumEdgeKinds * 2> adj;
    /** Indices of argument nodes (prediction heads), graph order. */
    std::vector<int32_t> argument_nodes;
};

/** Encode a query graph against its kernel. */
EncodedGraph encodeGraph(const kern::Kernel &kernel,
                         const QueryGraph &graph);

/**
 * Encode into a caller-owned EncodedGraph, reusing its buffers.
 * Hot loops (the fuzz localizer, evaluation sweeps) encode thousands
 * of graphs; passing the same `out` back in retains every vector's
 * capacity so a steady-state encode performs no heap allocation.
 */
void encodeGraphInto(const kern::Kernel &kernel, const QueryGraph &graph,
                     EncodedGraph &out);

}  // namespace sp::graph

#endif  // SP_GRAPH_ENCODE_H
