#pragma once
// Target-pruned inference without training caches.
//
// GcnModel::forward keeps per-layer activations for backward — fine for
// sampled subgraphs, wasteful for evaluation and serving. This path runs
// the same weights with ping-pong buffers and no cached state, and it
// computes only what is read: given a target set, layer k of L produces
// just the rows within L−k hops of the targets (Serafini & Guan's L-hop
// neighbourhood, shrunk per layer rather than taken whole).
//
// The rows are numbered hop by hop — targets first, then each further
// hop, each band in vertex order — so every layer's row set is a prefix of
// the one below it: the self GEMM of a deeper layer reads a plain
// row-prefix view of the previous output, and one vertex → row map serves
// every layer. The first layer reads the input matrix in place by vertex
// id (no copy of X), and only target rows reach the classifier. When the
// graph is already numbered that way (the serving engine's BFS closure),
// the map is the identity and is skipped. Every returned row is
// bit-identical to the same row of the full-graph call: each kernel's
// per-row arithmetic does not depend on which other rows are computed.
//
// The scratch is grow-only (gcn::ensure_shape), so repeated evaluation or
// serving allocates nothing once it has seen its largest shape.

#include <span>
#include <vector>

#include "gcn/model.hpp"

namespace gsgcn::gcn {

/// Workspaces reused across inference calls.
struct InferenceScratch {
  tensor::Matrix h_a;
  tensor::Matrix h_b;
  tensor::Matrix agg;
  tensor::Matrix logits;
  std::vector<graph::Vid> order;        // hop-ordered vertices (row → vertex)
  std::vector<graph::Vid> row_of;       // vertex → row; max id if unnumbered
  std::vector<graph::Vid> target_rows;  // per target: its row
  std::vector<graph::Vid> hop_end;      // rows within h hops, h = 0..L−1
};

/// Logits of `targets` (row i ↔ targets[i]; duplicates and any order
/// allowed), computing each layer only over the rows the next one reads.
/// Empty `targets` means every vertex of g (row i ↔ vertex i). x is
/// |V| x in_dim. The rows are model.forward(g, x) in eval mode (no
/// dropout), from the same kernels; the model's training caches are left
/// untouched.
const tensor::Matrix& infer_logits(const GcnModel& model,
                                   const graph::CsrGraph& g,
                                   const tensor::Matrix& x,
                                   InferenceScratch& scratch,
                                   int threads = 0,
                                   std::span<const graph::Vid> targets = {});

}  // namespace gsgcn::gcn
