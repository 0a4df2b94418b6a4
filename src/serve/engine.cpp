#include "serve/engine.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "obs/metrics.hpp"
#include "util/fault.hpp"

namespace gsgcn::serve {

InferenceEngine::InferenceEngine(const graph::CsrGraph& graph,
                                 const data::FeatureStore& features)
    : g_(graph),
      features_(features),
      inducer_(graph),
      stamp_(graph.num_vertices(), 0),
      local_of_(graph.num_vertices(), 0) {}

graph::Vid InferenceEngine::closure_add(graph::Vid v) {
  if (stamp_[v] == epoch_) return local_of_[v];
  stamp_[v] = epoch_;
  const auto local = static_cast<graph::Vid>(closure_.size());
  local_of_[v] = local;
  closure_.push_back(v);
  return local;
}

void InferenceEngine::run_batch(const ModelSnapshot& snap,
                                const std::vector<Ticket>& batch,
                                std::vector<Response>& out, int threads) {
  util::fault_point("serve.infer");

  const gcn::ModelConfig& cfg = snap.model.config();
  const graph::Vid n = g_.num_vertices();

  // Pass 1: seed the closure with every valid root, remembering each
  // ticket's local rows. Invalid tickets are answered without compute.
  ++epoch_;
  if (epoch_ == 0) {  // stamp wrap: force a full clear once per 2^32 batches
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    epoch_ = 1;
  }
  closure_.clear();

  const std::size_t first_out = out.size();
  // Ticket i's local rows are roots_[ticket_begin_[i], ticket_begin_[i+1])
  // (an empty run for pings and rejected tickets).
  roots_.clear();
  ticket_begin_.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Ticket& t = batch[i];
    ticket_begin_.push_back(roots_.size());
    Response resp;
    resp.request_id = t.request.request_id;
    resp.snapshot_seq = snap.seq;
    if (t.request.op == Op::kPing) {
      out.push_back(std::move(resp));
      continue;
    }
    bool ok = !t.request.vertices.empty();
    if (!ok) resp.message = "empty vertex list";
    for (const graph::Vid v : t.request.vertices) {
      if (v >= n) {
        ok = false;
        resp.message = "vertex id " + std::to_string(v) +
                       " out of range (num_vertices=" + std::to_string(n) +
                       ")";
        break;
      }
    }
    if (!ok) {
      resp.status = Status::kBadRequest;
      out.push_back(std::move(resp));
      continue;
    }
    for (const graph::Vid v : t.request.vertices) {
      roots_.push_back(closure_add(v));
    }
    out.push_back(std::move(resp));  // filled with logits below
  }
  ticket_begin_.push_back(roots_.size());
  if (roots_.empty()) return;

  // Pass 2: expand L hops. Frontier slices of closure_ double as the BFS
  // queue — closure_[lo, hi) is exactly the hop-(k) frontier.
  std::size_t lo = 0;
  for (int hop = 0; hop < cfg.num_layers; ++hop) {
    const std::size_t hi = closure_.size();
    for (std::size_t i = lo; i < hi; ++i) {
      for (const graph::Vid u : g_.neighbors(closure_[i])) {
        closure_add(u);
      }
    }
    lo = hi;
    if (closure_.size() == hi) break;  // already closed
  }
  GSGCN_GAUGE_SET("serve.closure_size",
                  static_cast<std::int64_t>(closure_.size()));

  // Pass 3: induce + gather the closure, then infer for the roots only.
  // The closure is hop-ordered from the roots, so each layer's rows are a
  // row prefix of it.
  graph::Subgraph sub = inducer_.induce(closure_, threads <= 0 ? 1 : threads);
  gcn::ensure_shape(batch_x_, closure_.size(), features_.cols());
  features_.gather(std::span<const std::uint32_t>(closure_), batch_x_,
                   threads);
  const tensor::Matrix& logits = gcn::infer_logits(
      snap.model, sub.graph, batch_x_, scratch_, threads, roots_);

  // Pass 4: each ticket's logits are a contiguous run of rows.
  const std::size_t cols = logits.cols();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t begin = ticket_begin_[i];
    const std::size_t rows = ticket_begin_[i + 1] - begin;
    if (rows == 0) continue;  // ping or rejected above
    Response& resp = out[first_out + i];
    resp.rows = static_cast<std::uint32_t>(rows);
    resp.cols = static_cast<std::uint32_t>(cols);
    resp.logits.assign(logits.row(begin), logits.row(begin) + rows * cols);
  }
}

}  // namespace gsgcn::serve
