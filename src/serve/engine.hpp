#pragma once
// Batched neighborhood-closure inference for serving.
//
// A request asks for logits of a handful of root vertices; running
// infer_logits over the full graph per batch would make latency scale
// with |V| instead of with the batch. Instead the engine takes the L-hop
// in-neighborhood closure of the batch's roots (L = num_layers), induces
// that subgraph, gathers its features, and runs target-pruned inference
// for the roots: the closure is numbered hop by hop from the roots, so
// layer k computes only the row prefix within L−k hops and the last layer
// only the roots themselves (gcn/inference.hpp).
//
// Exactness: layer k of a GCN needs exact h^(k-1) for a vertex's
// neighbors, so by induction a root's logits depend only on vertices
// within L hops — all of which are in the closure, and every row a layer
// computes lies within L−1 hops, so its neighbor list is intact. For the
// mean and sum aggregators the served logits therefore equal full-graph
// inference up to floating-point summation order (neighbor lists are
// renumbered by the closure), and they equal infer_logits over the same
// induced closure bit for bit. The symmetric-normalized aggregator also
// reads the *neighbors'* degrees, which are truncated for the hop-L
// boundary of the closure, so its boundary contribution is approximate;
// serve_cli defaults to mean.
//
// All workspaces are grow-only: a batch no larger than an earlier one
// reallocates no matrix. One engine per worker thread: the Inducer and
// scratch are stateful and not thread-safe (by design — no locks on the
// hot path).

#include <cstdint>
#include <vector>

#include "data/feature_store.hpp"
#include "gcn/inference.hpp"
#include "graph/csr.hpp"
#include "graph/subgraph.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "tensor/matrix.hpp"

namespace gsgcn::serve {

class InferenceEngine {
 public:
  /// `features` is the serving feature source — a zero-copy fp32 view or
  /// a compressed store; the closure gather widens rows on the fly either
  /// way. Must outlive the engine.
  InferenceEngine(const graph::CsrGraph& graph,
                  const data::FeatureStore& features);

  /// Answer every ticket in `batch` against `snap`, appending one Response
  /// per ticket to `out` (in batch order). Per-ticket failures (vertex id
  /// out of range) yield kBadRequest for that ticket only; the rest of the
  /// batch still computes. Throws only on internal errors (injected
  /// faults, allocation failure) — the caller maps that to kInternalError.
  void run_batch(const ModelSnapshot& snap, const std::vector<Ticket>& batch,
                 std::vector<Response>& out, int threads = 0);

  /// Closure size of the last run_batch (observability: how much graph a
  /// batch actually touched).
  std::size_t last_closure_size() const { return closure_.size(); }

  /// The last batch's closure in local-row order (original ids, roots
  /// first in first-occurrence order, then hop by hop).
  const std::vector<graph::Vid>& last_closure() const { return closure_; }

 private:
  /// Local row of original vertex v in the current closure, adding it if
  /// unseen. Returns the local id.
  graph::Vid closure_add(graph::Vid v);

  const graph::CsrGraph& g_;
  const data::FeatureStore& features_;
  graph::Inducer inducer_;
  gcn::InferenceScratch scratch_;
  tensor::Matrix batch_x_;
  std::vector<graph::Vid> roots_;           // every ticket's local rows
  std::vector<std::size_t> ticket_begin_;   // per ticket: its roots_ run

  // Epoch-stamped membership map, same trick as graph::Inducer: avoids an
  // O(|V|) clear per batch.
  std::vector<graph::Vid> closure_;
  std::vector<std::uint32_t> stamp_;
  std::vector<graph::Vid> local_of_;
  std::uint32_t epoch_ = 0;
};

}  // namespace gsgcn::serve
