#include "core/pmm.h"

#include "kernel/block.h"
#include "nn/inference.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sp::core {

namespace {

constexpr size_t kNumRelations = graph::kNumEdgeKinds * 2;

}  // namespace

Pmm::Pmm(const PmmConfig &config)
    : config_(config)
{
    Rng rng(config.init_seed);
    const int64_t dim = config.dim;

    node_kind_emb_ = std::make_unique<nn::Embedding>(
        rng, graph::EncodeVocab::kNodeKinds, dim, "node_kind");
    syscall_emb_ = std::make_unique<nn::Embedding>(
        rng, graph::EncodeVocab::kSyscallVocab, dim, "syscall");
    arg_type_emb_ = std::make_unique<nn::Embedding>(
        rng, graph::EncodeVocab::kArgTypeVocab, dim, "arg_type");
    arg_slot_emb_ = std::make_unique<nn::Embedding>(
        rng, kern::token::kMaxSlots, dim, "arg_slot");
    target_emb_ =
        std::make_unique<nn::Embedding>(rng, 2, dim, "target");
    token_emb_ = std::make_unique<nn::Embedding>(
        rng, kern::token::kVocabSize, config.token_dim, "token");
    token_proj_ = std::make_unique<nn::Linear>(
        rng, config.token_dim * graph::EncodeVocab::kTokenWindow, dim,
        "token_proj");

    absorb("", *node_kind_emb_);
    absorb("", *syscall_emb_);
    absorb("", *arg_type_emb_);
    absorb("", *arg_slot_emb_);
    absorb("", *target_emb_);
    absorb("", *token_emb_);
    absorb("", *token_proj_);

    layers_.resize(static_cast<size_t>(config.gnn_layers));
    for (int l = 0; l < config.gnn_layers; ++l) {
        auto &layer = layers_[static_cast<size_t>(l)];
        layer.relation.reserve(kNumRelations);
        for (size_t r = 0; r < kNumRelations; ++r) {
            layer.relation.push_back(std::make_unique<nn::Linear>(
                rng, dim, dim,
                "gnn" + std::to_string(l) + ".rel" + std::to_string(r)));
            absorb("", *layer.relation.back());
            if (config.use_attention) {
                layer.attention.push_back(std::make_unique<nn::Linear>(
                    rng, 2 * dim, 1,
                    "gnn" + std::to_string(l) + ".attn" +
                        std::to_string(r)));
                absorb("", *layer.attention.back());
            }
        }
        layer.self = std::make_unique<nn::Linear>(
            rng, dim, dim, "gnn" + std::to_string(l) + ".self");
        absorb("", *layer.self);
    }

    head_ = std::make_unique<nn::Mlp>(
        rng, std::vector<int64_t>{dim, config.head_hidden, 1}, "head");
    absorb("", *head_);
}

nn::Tensor
Pmm::embedNodes(const graph::EncodedGraph &graph) const
{
    using nn::Tensor;
    Tensor h = node_kind_emb_->forward(graph.node_kind);
    h = nn::add(h, syscall_emb_->forward(graph.syscall_tok));
    h = nn::add(h, arg_type_emb_->forward(graph.arg_type_tok));
    h = nn::add(h, arg_slot_emb_->forward(graph.arg_slot_tok));
    h = nn::add(h, target_emb_->forward(graph.target_flag));

    // Position-aware token encoder over the block-token window.
    // Thread-local scratch keeps steady-state forward passes off the
    // heap (the stale Tensor handles from the previous call are
    // cleared here, releasing those nodes back to the arena).
    const int64_t window = graph::EncodeVocab::kTokenWindow;
    const auto n = static_cast<int64_t>(graph.node_kind.size());
    thread_local std::vector<Tensor> per_position;
    thread_local std::vector<int32_t> column;
    per_position.clear();
    per_position.reserve(static_cast<size_t>(window));
    column.resize(static_cast<size_t>(n));
    for (int64_t p = 0; p < window; ++p) {
        for (int64_t i = 0; i < n; ++i) {
            column[static_cast<size_t>(i)] =
                graph.block_tokens[static_cast<size_t>(i * window + p)];
        }
        per_position.push_back(token_emb_->forward(column));
    }
    Tensor tokens = nn::concatCols(per_position);
    h = nn::add(h, token_proj_->forward(tokens));
    return nn::layerNormRows(h);
}

nn::Tensor
Pmm::nodeStates(const graph::EncodedGraph &graph, Rng *dropout_rng,
                bool training) const
{
    using nn::Tensor;
    SP_ASSERT(graph.num_nodes > 0, "empty query graph");
    Tensor h = embedNodes(graph);
    const auto n = static_cast<int64_t>(graph.num_nodes);

    for (const auto &layer : layers_) {
        Tensor sum = layer.self->forward(h);
        // In-degree per relation for mean aggregation.
        for (size_t r = 0; r < kNumRelations; ++r) {
            const auto &adj = graph.adj[r];
            if (adj.src.empty())
                continue;
            Tensor pooled;
            if (config_.use_attention) {
                // GAT-style: score each edge from its endpoint states,
                // softmax over the edges entering each destination.
                Tensor messages = nn::gatherRows(h, adj.src);
                Tensor endpoints = nn::concatCols(
                    {messages, nn::gatherRows(h, adj.dst)});
                Tensor scores = nn::leakyRelu(nn::flatten(
                    layer.attention[r]->forward(endpoints)));
                Tensor alpha =
                    nn::segmentSoftmax(scores, adj.dst,
                                       static_cast<int32_t>(n));
                pooled = nn::scatterAddRows(
                    nn::rowScaleT(messages, alpha), adj.dst, n);
            } else {
                // GCN-style mean aggregation (the paper's choice),
                // fused: no per-edge message matrix is materialized,
                // and rows without incoming edges stay exactly zero so
                // the relation GEMM skips them.
                pooled = nn::segmentMeanRows(h, adj.src, adj.dst, n);
            }
            sum = nn::add(sum, layer.relation[r]->forward(pooled));
        }
        Tensor activated = nn::relu(sum);
        if (training && dropout_rng != nullptr) {
            activated = nn::dropout(activated, config_.dropout,
                                    *dropout_rng, true);
        }
        // Residual + normalization.
        h = nn::layerNormRows(nn::add(h, activated));
    }
    return h;
}

nn::Tensor
Pmm::forward(const graph::EncodedGraph &graph, Rng *dropout_rng,
             bool training) const
{
    using nn::Tensor;
    Tensor h = nodeStates(graph, dropout_rng, training);
    SP_ASSERT(!graph.argument_nodes.empty(),
              "query graph has no argument nodes");
    Tensor args = nn::gatherRows(h, graph.argument_nodes);
    Tensor logits = head_->forward(args);  // [n_args, 1]
    return nn::flatten(logits);
}

std::vector<float>
Pmm::predict(const graph::EncodedGraph &graph) const
{
    if (graph.argument_nodes.empty())
        return {};
    nn::InferenceScope scope;
    nn::Tensor probs = nn::sigmoid(forward(graph));
    return probs.data();
}

}  // namespace sp::core
