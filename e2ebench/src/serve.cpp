// Serving phase: open-loop Poisson load against an in-process
// serve::Server over loopback sockets, and the same arrival schedules
// replayed in-process (encode → decode → AdmissionQueue → run_batch →
// encode) with a span per stage for the per-layer breakdown.

#include <atomic>
#include <cmath>
#include <limits>
#include <poll.h>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "data/feature_store.hpp"
#include "gcn/inference.hpp"
#include "graph/reorder.hpp"
#include "serve/admission.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/socket.hpp"
#include "util/frame.hpp"
#include "util/rng.hpp"

namespace e2e {

using namespace gsgcn;

namespace {

// The server runs with serve::ServerOptions defaults: one worker with one
// inference thread, batch window 2 ms, max batch 8, queue bound 64 and a
// 1 s deadline. The in-process replay uses the same values.
const serve::ServerOptions kServer{};
// Pipelined client connections of the load generator.
constexpr int kConnections = 4;
// Latency limit of max_qps_at_slo, on p99.
constexpr double kSloP99Ms = 100.0;
// Every k-th reply has its logits compared with full-graph inference.
constexpr std::size_t kCheckEvery = 8;
// Absolute logit tolerance of the engine-vs-full-graph test.
constexpr float kLogitTol = 1e-4f;
// A phase whose generator ran later than this at p99 is invalid.
constexpr double kLateLimitMs = 5.0;
// Minimum requests per phase: p99 needs ten samples beyond it.
constexpr std::size_t kMinRequests = 1100;
// A valid phase during which the hypervisor took more than this share of
// the CPUs is run once more, and the quieter attempt is kept.
constexpr double kQuietSteal = 0.01;
// Replies still missing this long after the last send are lost.
constexpr std::int64_t kDrainNs = 3'000'000'000;

struct Schedule {
  double rate = 0.0;
  std::vector<std::int64_t> due_ns;  // offsets from the phase start
  std::vector<graph::Vid> vertex;
};

Schedule make_schedule(std::uint64_t seed, std::uint64_t stream, double rate,
                       double seconds, graph::Vid num_vertices) {
  Schedule s;
  s.rate = rate;
  const auto n = std::max<std::size_t>(
      kMinRequests, static_cast<std::size_t>(std::ceil(rate * seconds)));
  util::Xoshiro256 rng = util::Xoshiro256::stream(seed, 0xe2e0 + stream);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-rng.uniform()) / rate;
    s.due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
    s.vertex.push_back(rng.below(num_vertices));
  }
  return s;
}

/// Per-request outcome slots; each is written by exactly one thread.
struct Outcomes {
  explicit Outcomes(std::size_t n)
      : due(n, 0), sent(n, 0), done(n, 0), status(n, 0xff), wrong(n, 0) {}
  std::vector<std::int64_t> due;   // absolute due time
  std::vector<std::int64_t> sent;  // absolute send time
  std::vector<std::int64_t> done;  // absolute reply time, 0 = none
  std::vector<std::uint8_t> status;
  std::vector<std::uint8_t> wrong;
};

struct PhaseResult {
  double rate = 0.0;
  std::vector<double> latency_ms;  // OK replies, from due time
  std::vector<double> late_ms;     // send time minus due time
  // Every request in arrival order; failed ones are infinitely late.
  std::vector<double> all_ms;
  std::int64_t sent = 0, ok = 0, shed = 0, errors = 0, missing = 0;
  std::int64_t wrong = 0, checked = 0;
  double achieved_qps = 0.0;
  double steal = 0.0;  // CPU steal share while the phase ran

  double p50() const { return median(latency_ms); }
  double p90() const { return quantile(all_ms, 0.9); }
  /// A failed request counts as missing any latency limit.
  double p99() const { return quantile(all_ms, 0.99); }
  double late_p99() const { return quantile(late_ms, 0.99); }
  /// Ten samples beyond p99, a finite p99 and a generator that kept to
  /// its schedule.
  bool valid() const {
    return samples_beyond(all_ms.size(), 0.99) >= 10 && std::isfinite(p99()) &&
           late_p99() <= kLateLimitMs;
  }
};

PhaseResult summarize(const Outcomes& o, double rate) {
  PhaseResult r;
  r.rate = rate;
  const std::size_t n = o.due.size();
  r.sent = static_cast<std::int64_t>(n);
  std::int64_t first_due = n > 0 ? o.due.front() : 0;
  std::int64_t last_done = first_due;
  for (std::size_t i = 0; i < n; ++i) {
    r.late_ms.push_back(static_cast<double>(o.sent[i] - o.due[i]) * 1e-6);
    r.wrong += o.wrong[i];
    r.all_ms.push_back(std::numeric_limits<double>::infinity());
    if (o.done[i] == 0) {
      ++r.missing;
      continue;
    }
    const auto st = static_cast<serve::Status>(o.status[i]);
    if (st == serve::Status::kOk) {
      ++r.ok;
      r.all_ms.back() = static_cast<double>(o.done[i] - o.due[i]) * 1e-6;
      r.latency_ms.push_back(r.all_ms.back());
      last_done = std::max(last_done, o.done[i]);
    } else if (st == serve::Status::kOverloaded) {
      ++r.shed;
    } else {
      ++r.errors;
    }
  }
  for (std::size_t i = 0; i < n; i += kCheckEvery) {
    if (o.done[i] != 0 && o.status[i] == 0) ++r.checked;
  }
  const double span_s = static_cast<double>(last_done - first_due) * 1e-9;
  r.achieved_qps = span_s > 0.0 ? static_cast<double>(r.ok) / span_s : 0.0;
  return r;
}

/// Full-graph logits of the served model, the oracle for sampled replies.
struct Reference {
  tensor::Matrix logits;

  bool matches(const serve::Response& resp, graph::Vid v) const {
    if (resp.rows != 1 || resp.cols != logits.cols() ||
        resp.logits.size() != logits.cols()) {
      return false;
    }
    for (std::size_t c = 0; c < logits.cols(); ++c) {
      if (!(std::fabs(resp.logits[c] - logits(v, c)) <= kLogitTol)) return false;
    }
    return true;
  }
};

/// Record one decoded reply into its outcome slot.
void settle(Outcomes& o, const Schedule& sch, const Reference& ref,
            std::uint64_t id_base, const serve::Response& resp,
            std::int64_t t) {
  const std::uint64_t idx = resp.request_id - id_base;
  if (resp.request_id < id_base || idx >= o.done.size() || o.done[idx] != 0) {
    return;
  }
  o.status[idx] = static_cast<std::uint8_t>(resp.status);
  if (resp.status == serve::Status::kOk && idx % kCheckEvery == 0 &&
      !ref.matches(resp, sch.vertex[idx])) {
    o.wrong[idx] = 1;
  }
  o.done[idx] = t;
}

serve::Request make_request(const Schedule& sch, std::size_t i,
                            std::uint64_t id_base) {
  serve::Request req;
  req.op = serve::Op::kInfer;
  req.request_id = id_base + i;
  req.vertices = {sch.vertex[i]};
  return req;
}

/// Wait for an absolute steady-clock time. Timed sleeps on small VMs wake
/// milliseconds late at the tail, which would make the generator, not the
/// server, set the latency tail; spinning with yields keeps it on time.
void wait_until(std::int64_t t_ns) {
  while (now_ns() < t_ns) std::this_thread::yield();
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = serve::sock_write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One open-loop phase over loopback: a sender thread (this one) keeps
/// the Poisson schedule across `conns` pipelined connections, a receiver
/// thread decodes replies as they arrive.
PhaseResult drive_socket(std::uint16_t port, int conns, const Schedule& sch,
                         const Reference& ref, std::uint64_t id_base) {
  std::vector<serve::Fd> fds;
  for (int c = 0; c < conns; ++c) {
    std::string err;
    fds.push_back(serve::connect_to(port, err));
    if (!fds.back().valid()) throw std::runtime_error("connect: " + err);
  }
  const std::size_t n = sch.due_ns.size();
  Outcomes o(n);
  std::atomic<std::int64_t> sender_done_ns{0};
  std::atomic<std::size_t> received{0};

  std::thread receiver([&] {
    std::vector<std::string> bufs(fds.size());
    std::vector<pollfd> pfds;
    for (const serve::Fd& fd : fds) pfds.push_back({fd.get(), POLLIN, 0});
    std::vector<char> chunk(1 << 16);
    std::string payload;
    serve::Response resp;
    std::string err;
    while (received.load() < n) {
      const std::int64_t done_at = sender_done_ns.load();
      if (done_at != 0 && now_ns() > done_at + kDrainNs) break;
      if (::poll(pfds.data(), pfds.size(), 5) <= 0) continue;
      for (std::size_t c = 0; c < pfds.size(); ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t got = serve::sock_read(pfds[c].fd, chunk.data(), chunk.size());
        const std::int64_t t = now_ns();
        if (got <= 0) {
          if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
          pfds[c].fd = -1;  // connection lost; its replies stay missing
          continue;
        }
        std::string& buf = bufs[c];
        buf.append(chunk.data(), static_cast<std::size_t>(got));
        std::size_t off = 0;
        for (;;) {
          std::size_t used = 0;
          const util::FrameStatus st = util::frame_try_decode(
              serve::kWireFrame, buf.data() + off, buf.size() - off, payload, used);
          if (st != util::FrameStatus::kOk) {
            if (st != util::FrameStatus::kNeedMore) pfds[c].fd = -1;
            break;
          }
          off += used;
          if (serve::decode_response(payload, resp, err)) {
            settle(o, sch, ref, id_base, resp, t);
            received.fetch_add(1);
          }
        }
        buf.erase(0, off);
      }
    }
  });

  const CpuTimes cpu0 = read_cpu_times();
  const std::int64_t t0 = now_ns() + 20'000'000;
  bool transport_ok = true;
  for (std::size_t i = 0; i < n && transport_ok; ++i) {
    o.due[i] = t0 + sch.due_ns[i];
    wait_until(o.due[i]);
    o.sent[i] = now_ns();
    const std::string frame = util::frame_encode(
        serve::kWireFrame, serve::encode_request(make_request(sch, i, id_base)));
    transport_ok = write_all(fds[i % fds.size()].get(), frame);
  }
  sender_done_ns.store(now_ns());
  receiver.join();
  for (std::size_t i = 0; i < n; ++i) {
    if (o.due[i] == 0) o.due[i] = o.sent[i] = t0 + sch.due_ns[i];
  }
  PhaseResult r = summarize(o, sch.rate);
  r.steal = steal_share(cpu0, read_cpu_times());
  return r;
}

struct InprocStats {
  std::vector<double> queue_wait_ms;
  std::vector<double> batch_size;
  std::vector<double> closure_vertices;
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_deadline = 0;
};

/// The same schedule through the server's stages without sockets: the
/// sender encodes, decodes and admits each request at its due time; one
/// worker pops batches, runs the engine, encodes each reply and decodes
/// it as the client would.
PhaseResult drive_inproc(const serve::ModelSnapshot& snap,
                         const graph::CsrGraph& graph,
                         const data::FeatureStore& features,
                         const Schedule& sch,
                         const Reference& ref, std::uint64_t id_base,
                         Recorder& rec, InprocStats& st) {
  const std::size_t n = sch.due_ns.size();
  Outcomes o(n);
  serve::AdmissionQueue queue(kServer.queue_capacity);
  const auto window = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(kServer.batch_window_ms));
  auto ns_of = [](serve::SteadyTime t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
        .count();
  };

  std::thread worker([&] {
    serve::InferenceEngine engine(graph, features);
    std::vector<serve::Ticket> batch;
    std::vector<serve::Ticket> expired;
    std::vector<serve::Response> responses;
    std::string payload;
    std::string err;
    while (queue.pop_batch(kServer.max_batch, window, batch, expired)) {
      const std::int64_t t_deq = now_ns();
      for (const serve::Ticket& t : expired) {
        ++st.shed_deadline;
        serve::Response r;
        r.status = serve::Status::kOverloaded;
        r.request_id = t.request.request_id;
        settle(o, sch, ref, id_base, r, t_deq);
      }
      if (batch.empty()) continue;
      for (const serve::Ticket& t : batch) {
        const std::int64_t enq = ns_of(t.enqueued);
        st.queue_wait_ms.push_back(static_cast<double>(t_deq - enq) * 1e-6);
        rec.record("serve.admission.queue_wait", enq, t_deq,
                   static_cast<std::int64_t>(t.request.request_id));
      }
      st.batch_size.push_back(static_cast<double>(batch.size()));
      responses.clear();
      {
        ScopedSpan sp(rec, "serve.engine.run_batch",
                      static_cast<std::int64_t>(batch.front().request.request_id));
        engine.run_batch(snap, batch, responses, 1);
      }
      st.closure_vertices.push_back(static_cast<double>(engine.last_closure_size()));
      for (const serve::Response& r : responses) {
        const auto id = static_cast<std::int64_t>(r.request_id);
        std::string framed;
        {
          ScopedSpan sp(rec, "serve.protocol.encode_response", id);
          framed = util::frame_encode(serve::kWireFrame, serve::encode_response(r));
        }
        serve::Response back;
        bool decoded = false;
        {
          ScopedSpan sp(rec, "serve.protocol.decode_response", id);
          decoded = util::frame_decode_buffer(serve::kWireFrame, framed, payload) ==
                        util::FrameStatus::kOk &&
                    serve::decode_response(payload, back, err);
        }
        if (decoded) settle(o, sch, ref, id_base, back, now_ns());
      }
    }
  });

  const std::int64_t t0 = now_ns() + 20'000'000;
  std::string payload;
  std::string err;
  for (std::size_t i = 0; i < n; ++i) {
    o.due[i] = t0 + sch.due_ns[i];
    wait_until(o.due[i]);
    o.sent[i] = now_ns();
    const auto id = static_cast<std::int64_t>(id_base + i);
    std::string framed;
    {
      ScopedSpan sp(rec, "serve.protocol.encode_request", id);
      framed = util::frame_encode(serve::kWireFrame,
                                  serve::encode_request(make_request(sch, i, id_base)));
    }
    serve::Ticket ticket;
    bool decoded = false;
    {
      ScopedSpan sp(rec, "serve.protocol.decode_request", id);
      decoded = util::frame_decode_buffer(serve::kWireFrame, framed, payload) ==
                    util::FrameStatus::kOk &&
                serve::decode_request(payload, ticket.request, err);
    }
    if (!decoded) continue;  // stays missing
    ticket.enqueued = Clock::now();
    ticket.deadline = ticket.enqueued + std::chrono::milliseconds(kServer.default_deadline_ms);
    ticket.has_deadline = true;
    serve::Admit admit = serve::Admit::kAdmitted;
    {
      ScopedSpan sp(rec, "serve.admission.push", id);
      admit = queue.push(std::move(ticket));
    }
    if (admit != serve::Admit::kAdmitted) {
      ++st.shed_queue_full;
      serve::Response r;
      r.status = serve::Status::kOverloaded;
      r.request_id = id_base + i;
      settle(o, sch, ref, id_base, r, now_ns());
    }
  }
  queue.close();
  worker.join();
  return summarize(o, sch.rate);
}

/// Serving-side inputs: the feature store the server reads and the model
/// snapshot it serves.
struct ServeInputs {
  std::unique_ptr<data::FeatureStore> features;
  std::unique_ptr<serve::SnapshotStore> snapshots;
};

ServeInputs make_inputs(const RunContext& ctx, const Trained& t) {
  ServeInputs in;
  if (t.feature_file.empty()) {
    in.features = std::make_unique<data::FeatureStore>(
        data::FeatureStore::view(t.ds.features));
  } else {
    data::FeatureStoreOptions fo;
    fo.cache_mb = ctx.wl.train.cache_mb;
    in.features = std::make_unique<data::FeatureStore>(data::FeatureStore::open_mmap(
        t.feature_file, fo, graph::degree_order(t.ds.graph)));
  }
  in.snapshots = std::make_unique<serve::SnapshotStore>(
      std::make_shared<const serve::ModelSnapshot>(1, -1, *t.model));
  return in;
}

/// Every request is an operation; shed, error and lost replies are failed
/// operations, and a reply with wrong logits is a failed output check.
void account(Tally& tally, const PhaseResult& r, const std::string& phase) {
  tally.operations(r.sent, r.shed + r.errors + r.missing);
  tally.check(r.wrong == 0, phase + ": served logits match full-graph inference");
  tally.check(r.checked > 0, phase + ": some replies were checked");
}

void report(const PhaseResult& r, const char* label) {
  std::fprintf(stdout,
               "serve %-14s rate=%6.0f/s sent=%lld ok=%lld shed=%lld err=%lld lost=%lld "
               "wrong=%lld p50=%.3fms p90=%.3fms p99=%.3fms late_p99=%.3fms qps=%.1f steal=%.4f\n",
               label, r.rate, static_cast<long long>(r.sent),
               static_cast<long long>(r.ok), static_cast<long long>(r.shed),
               static_cast<long long>(r.errors), static_cast<long long>(r.missing),
               static_cast<long long>(r.wrong), r.p50(), r.p90(), r.p99(),
               r.late_p99(), r.achieved_qps, r.steal);
}

}  // namespace

double run_serving(RunContext& ctx, const Trained& t, bool traced,
                   std::vector<Span>* trace_out) {
  const ServeSpec& spec = ctx.wl.serve;
  const graph::Vid nv = t.ds.num_vertices();
  const double budget = 0.6 * ctx.seconds;

  // Set-up, repeated for a median: feature store, snapshot, server start.
  std::vector<double> setup;
  ServeInputs in;
  std::unique_ptr<serve::Server> server;
  for (int r = 0; r < 3; ++r) {
    if (server) server->stop();
    server.reset();
    const std::int64_t t0 = now_ns();
    in = make_inputs(ctx, t);
    server = std::make_unique<serve::Server>(*in.snapshots, t.ds.graph, *in.features,
                                             kServer);
    server->start();
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Reference ref;
  {
    gcn::InferenceScratch buffers;
    const tensor::Matrix dense =
        t.feature_file.empty() ? tensor::Matrix() : in.features->to_dense();
    ref.logits = gcn::infer_logits(*t.model, t.ds.graph,
                                   t.feature_file.empty() ? t.ds.features : dense,
                                   buffers, 2);
  }

  const std::uint64_t seed = ctx.seed;
  const Schedule low = make_schedule(seed, 1, spec.low_qps, 0.3 * budget, nv);
  const Schedule high = make_schedule(seed, 2, spec.high_qps, 0.2 * budget, nv);
  std::uint64_t id_base = 1;
  auto next_base = [&id_base](const Schedule& s) {
    const std::uint64_t b = id_base;
    id_base += s.due_ns.size() + 1;
    return b;
  };

  if (!traced) {
    // A phase whose generator fell behind (host stalls) or that has too
    // few replies for p99 describes the host, not the server: it is
    // re-run, up to three attempts, and the run fails if none is valid.
    // A valid phase that ran under CPU steal gets one more attempt.
    auto valid_phase = [&](const Schedule& s, const char* label) {
      PhaseResult best;
      bool have = false;
      for (int attempt = 0; attempt < 3; ++attempt) {
        PhaseResult r = drive_socket(server->port(), kConnections, s, ref, next_base(s));
        report(r, label);
        account(ctx.tally, r, label);
        if (r.valid() && (!have || r.steal < best.steal)) {
          best = std::move(r);
          have = true;
        } else if (!have) {
          best = std::move(r);
        }
        if (have && (best.steal <= kQuietSteal || attempt >= 1)) break;
      }
      ctx.tally.check(have, std::string(label) + " rate: valid open-loop phase");
      return best;
    };
    const PhaseResult lo = valid_phase(low, "low");
    const PhaseResult hi = valid_phase(high, "high");

    double max_qps = 0.0;
    for (std::size_t k = 0; k < spec.ladder_qps.size(); ++k) {
      const Schedule s = make_schedule(seed, 10 + k, spec.ladder_qps[k],
                                       0.05 * budget, nv);
      const PhaseResult r = drive_socket(server->port(), kConnections, s, ref,
                                         next_base(s));
      report(r, "ladder");
      // Ladder steps above the knee shed by design: only wrong output
      // counts against the run here.
      ctx.tally.check(r.wrong == 0, "ladder: served logits match full-graph inference");
      // A backlog that grows within a step hits the queue bound or the
      // deadline, and the shed requests push p99 to infinity.
      const bool pass = r.wrong == 0 && r.valid() && r.p99() <= kSloP99Ms;
      // Every step runs: a host stall that spoils one step must not hide
      // the steps above it.
      if (pass) max_qps = std::max(max_qps, r.achieved_qps);
    }
    ctx.tally.check(max_qps > 0.0, "some ladder rate meets the latency limit");
    server->stop();

    auto& m = ctx.metrics;
    m.push_back({"p50_ms.low", lo.p50(), "ms"});
    m.push_back({"p90_ms.low", lo.p90(), "ms"});
    m.push_back({"p50_ms.high", hi.p50(), "ms"});
    m.push_back({"p90_ms.high", hi.p90(), "ms"});
    m.push_back({"max_qps_at_slo", max_qps, "req/s"});
    return median(setup);
  }

  // Traced: the socket run at the low rate is the baseline for the IO
  // share; the in-process replays run untraced and traced at the low
  // rate (tracing overhead) and traced at the high rate (queueing).
  const PhaseResult sock = drive_socket(server->port(), kConnections, low, ref,
                                        next_base(low));
  server->stop();
  report(sock, "low/socket");
  account(ctx.tally, sock, "low/socket");
  const serve::ModelSnapshot& snap = *in.snapshots->current();

  Recorder off(false);
  InprocStats st_plain;
  const PhaseResult plain = drive_inproc(snap, t.ds.graph, *in.features, low,
                                         ref, next_base(low), off, st_plain);
  report(plain, "low/inproc");
  Recorder rec_low(true);
  InprocStats st_low;
  const PhaseResult lo = drive_inproc(snap, t.ds.graph, *in.features, low, ref,
                                      next_base(low), rec_low, st_low);
  report(lo, "low/traced");
  Recorder rec_high(true);
  InprocStats st_high;
  const PhaseResult hi = drive_inproc(snap, t.ds.graph, *in.features, high, ref,
                                      next_base(high), rec_high, st_high);
  report(hi, "high/traced");
  for (const auto* r : {&plain, &lo, &hi}) account(ctx.tally, *r, "in-process");

  const std::vector<Span> low_spans = rec_low.spans();
  const std::vector<Span> high_spans = rec_high.spans();
  const std::vector<double> run_batch = durations(low_spans, "serve.engine.run_batch");
  auto total_us = [](const std::vector<Span>& sp, const char* a, const char* b) {
    double s = 0.0;
    for (const char* name : {a, b}) {
      for (double d : durations(sp, name)) s += d;
    }
    return s * 1e6;
  };
  const double requests = static_cast<double>(std::max<std::int64_t>(1, lo.sent));
  auto& m = ctx.metrics;
  m.push_back({"serve.engine.run_batch_ms.p50", median(run_batch) * 1e3, "ms"});
  m.push_back({"serve.engine.run_batch_ms.tail",
               quantile(run_batch, tail_quantile(run_batch.size())) * 1e3, "ms"});
  m.push_back({"serve.engine.closure_vertices.mean", mean(st_low.closure_vertices), "count"});
  m.push_back({"serve.admission.queue_wait_ms.p50", median(st_high.queue_wait_ms), "ms"});
  m.push_back({"serve.admission.queue_wait_ms.p99", quantile(st_high.queue_wait_ms, 0.99), "ms"});
  m.push_back({"serve.admission.batch_size.mean", mean(st_high.batch_size), "count"});
  m.push_back({"serve.shed.queue_full", static_cast<double>(st_high.shed_queue_full), "count"});
  m.push_back({"serve.shed.deadline", static_cast<double>(st_high.shed_deadline), "count"});
  m.push_back({"serve.protocol.encode_us",
               total_us(low_spans, "serve.protocol.encode_request",
                        "serve.protocol.encode_response") / requests, "us"});
  m.push_back({"serve.protocol.decode_us",
               total_us(low_spans, "serve.protocol.decode_request",
                        "serve.protocol.decode_response") / requests, "us"});
  m.push_back({"serve.io_ms", sock.p50() - plain.p50(), "ms"});
  m.push_back({"serve.socket.p99_ms.low", quantile(sock.latency_ms, 0.99), "ms"});
  m.push_back({"loadgen.late_ms.p99", sock.late_p99(), "ms"});
  m.push_back({"trace.overhead_frac.serve", lo.p50() / plain.p50() - 1.0, "1"});
  if (trace_out != nullptr) {
    append_spans(*trace_out, low_spans);
    append_spans(*trace_out, high_spans);
  }
  return median(setup);
}

}  // namespace e2e
