// Serving building blocks below the socket layer: wire protocol
// encode/decode hardening, the admission queue's shedding and batching
// contracts, snapshot store/watcher swap-and-reject behavior, the
// neighborhood-closure engine's agreement with full-graph inference, and
// the concurrent checkpoint-publish vs load_latest hammer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "gcn/adam.hpp"
#include "gcn/checkpoint.hpp"
#include "gcn/inference.hpp"
#include "graph/subgraph.hpp"
#include "tensor/ops.hpp"
#include "serve/admission.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "util/fault.hpp"

namespace gsgcn::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTrips) {
  Request req;
  req.op = Op::kInfer;
  req.request_id = 0xdeadbeefcafeULL;
  req.deadline_ms = 250;
  req.vertices = {3, 1, 4, 1, 5, 9};

  Request out;
  std::string err;
  ASSERT_TRUE(decode_request(encode_request(req), out, err)) << err;
  EXPECT_EQ(out.op, Op::kInfer);
  EXPECT_EQ(out.request_id, req.request_id);
  EXPECT_EQ(out.deadline_ms, 250u);
  EXPECT_EQ(out.vertices, req.vertices);
}

TEST(ServeProtocol, ResponseRoundTrips) {
  Response resp;
  resp.status = Status::kOk;
  resp.request_id = 77;
  resp.snapshot_seq = 5;
  resp.rows = 2;
  resp.cols = 3;
  resp.logits = {1.5f, -2.0f, 0.0f, 3.25f, -0.5f, 9.0f};
  resp.message = "fine";

  Response out;
  std::string err;
  ASSERT_TRUE(decode_response(encode_response(resp), out, err)) << err;
  EXPECT_EQ(out.status, Status::kOk);
  EXPECT_EQ(out.request_id, 77u);
  EXPECT_EQ(out.snapshot_seq, 5u);
  EXPECT_EQ(out.rows, 2u);
  EXPECT_EQ(out.cols, 3u);
  EXPECT_EQ(out.logits, resp.logits);
  EXPECT_EQ(out.message, "fine");
}

TEST(ServeProtocol, DecodeRejectsMalformedRequests) {
  Request out;
  std::string err;
  // Unknown op.
  std::string p = encode_request(Request{});
  p[0] = 99;
  EXPECT_FALSE(decode_request(p, out, err));
  EXPECT_NE(err.find("op"), std::string::npos);
  // Truncated.
  p = encode_request(Request{Op::kInfer, 1, 0, {1, 2, 3}});
  EXPECT_FALSE(decode_request(std::string_view(p).substr(0, p.size() - 2),
                              out, err));
  // Trailing bytes.
  EXPECT_FALSE(decode_request(p + "x", out, err));
  EXPECT_NE(err.find("trailing"), std::string::npos);
  // Oversized vertex count must be rejected BEFORE allocation: claim 2^31
  // vertices in a payload that doesn't carry them.
  Request big;
  big.vertices = {1};
  p = encode_request(big);
  const std::uint32_t huge = 1u << 31;
  std::memcpy(p.data() + 13, &huge, sizeof(huge));
  EXPECT_FALSE(decode_request(p, out, err));
  EXPECT_NE(err.find("exceeds limit"), std::string::npos);
}

TEST(ServeProtocol, DecodeRejectsMalformedResponses) {
  Response out;
  std::string err;
  Response ok;
  ok.rows = 1;
  ok.cols = 2;
  ok.logits = {1.0f, 2.0f};
  std::string p = encode_response(ok);
  // Unknown status byte.
  p[0] = 200;
  EXPECT_FALSE(decode_response(p, out, err));
  // Logit block larger than the payload (corrupt rows field).
  p = encode_response(ok);
  const std::uint32_t huge = 1u << 30;
  std::memcpy(p.data() + 17, &huge, sizeof(huge));
  EXPECT_FALSE(decode_response(p, out, err));
  EXPECT_NE(err.find("larger than payload"), std::string::npos);
}

TEST(ServeProtocol, ErrorFrameParsesBackToItsStatus) {
  const std::string framed = make_error_frame(Status::kOverloaded, "busy");
  std::string payload;
  ASSERT_EQ(util::frame_decode_buffer(kWireFrame, framed, payload),
            util::FrameStatus::kOk);
  Response resp;
  std::string err;
  ASSERT_TRUE(decode_response(payload, resp, err)) << err;
  EXPECT_EQ(resp.status, Status::kOverloaded);
  EXPECT_EQ(resp.message, "busy");
}

// ---------------------------------------------------------------------------
// Admission queue
// ---------------------------------------------------------------------------

Ticket make_ticket(std::uint64_t id, std::uint32_t deadline_ms = 0) {
  Ticket t;
  t.conn_id = id;
  t.request.request_id = id;
  t.enqueued = std::chrono::steady_clock::now();
  if (deadline_ms > 0) {
    t.deadline = t.enqueued + std::chrono::milliseconds(deadline_ms);
    t.has_deadline = true;
  }
  return t;
}

TEST(AdmissionQueue, FifoBatchUpToMaxBatch) {
  AdmissionQueue q(16);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(q.push(make_ticket(i)), Admit::kAdmitted);
  }
  std::vector<Ticket> batch, expired;
  ASSERT_TRUE(q.pop_batch(3, 0ns, batch, expired));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(expired.empty());
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(batch[i].request.request_id, i);
  }
  ASSERT_TRUE(q.pop_batch(3, 0ns, batch, expired));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(AdmissionQueue, FullQueueShedsImmediately) {
  AdmissionQueue q(2);
  EXPECT_EQ(q.push(make_ticket(1)), Admit::kAdmitted);
  EXPECT_EQ(q.push(make_ticket(2)), Admit::kAdmitted);
  EXPECT_EQ(q.push(make_ticket(3)), Admit::kQueueFull);
  EXPECT_EQ(q.rejected_full_total(), 1u);
  EXPECT_EQ(q.admitted_total(), 2u);
}

TEST(AdmissionQueue, ExpiredTicketsAreRoutedSeparately) {
  AdmissionQueue q(8);
  ASSERT_EQ(q.push(make_ticket(1, /*deadline_ms=*/1)), Admit::kAdmitted);
  ASSERT_EQ(q.push(make_ticket(2, /*deadline_ms=*/60000)), Admit::kAdmitted);
  std::this_thread::sleep_for(10ms);  // let ticket 1 expire in the queue
  std::vector<Ticket> batch, expired;
  ASSERT_TRUE(q.pop_batch(8, 0ns, batch, expired));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].request.request_id, 1u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.request_id, 2u);
}

TEST(AdmissionQueue, CloseDrainsThenSignalsExit) {
  AdmissionQueue q(8);
  ASSERT_EQ(q.push(make_ticket(1)), Admit::kAdmitted);
  q.close();
  EXPECT_EQ(q.push(make_ticket(2)), Admit::kClosed);
  std::vector<Ticket> batch, expired;
  // Already-admitted work still comes out...
  ASSERT_TRUE(q.pop_batch(8, 0ns, batch, expired));
  EXPECT_EQ(batch.size(), 1u);
  // ...and only then does the queue report done.
  EXPECT_FALSE(q.pop_batch(8, 0ns, batch, expired));
}

TEST(AdmissionQueue, BatchWindowCoalescesConcurrentPushes) {
  AdmissionQueue q(64);
  std::vector<Ticket> batch, expired;
  std::thread producer([&q] {
    for (std::uint64_t i = 0; i < 4; ++i) {
      q.push(make_ticket(i));
      std::this_thread::sleep_for(5ms);
    }
  });
  // A generous window collects everything the producer trickles in.
  ASSERT_TRUE(q.pop_batch(4, std::chrono::nanoseconds(2s), batch, expired));
  producer.join();
  EXPECT_EQ(batch.size(), 4u);  // filled max_batch before the window closed
}

TEST(AdmissionQueue, PopBlocksUntilPushArrives) {
  AdmissionQueue q(8);
  std::vector<Ticket> batch, expired;
  std::thread popper([&] {
    ASSERT_TRUE(q.pop_batch(1, 0ns, batch, expired));
  });
  std::this_thread::sleep_for(20ms);
  q.push(make_ticket(42));
  popper.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.request_id, 42u);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

gcn::ModelConfig serve_model_config() {
  gcn::ModelConfig mc;
  mc.in_dim = 8;
  mc.hidden_dim = 6;
  mc.num_classes = 4;
  mc.num_layers = 2;
  mc.seed = 11;
  return mc;
}

class ServeSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::FaultInjector::instance().clear();
    dir_ = (fs::temp_directory_path() /
            ("gsgcn_serve_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    util::FaultInjector::instance().clear();
    fs::remove_all(dir_);
  }

  std::string checkpoint_payload(const gcn::ModelConfig& mc,
                                 std::uint64_t weight_seed) {
    gcn::ModelConfig seeded = mc;
    seeded.seed = weight_seed;
    gcn::GcnModel model(seeded);
    gcn::Adam opt;
    model.attach(opt);
    gcn::CheckpointCursors cur;
    return gcn::encode_checkpoint(cur, model, opt);
  }

  std::string dir_;
};

TEST_F(ServeSnapshotTest, StorePublishKeepsInFlightSnapshotsAlive) {
  const gcn::ModelConfig mc = serve_model_config();
  SnapshotStore store(
      std::make_shared<const ModelSnapshot>(0, -1, gcn::GcnModel(mc)));
  const std::shared_ptr<const ModelSnapshot> held = store.current();
  store.publish(std::make_shared<const ModelSnapshot>(1, 3,
                                                      gcn::GcnModel(mc)));
  EXPECT_EQ(store.current()->seq, 1u);
  EXPECT_EQ(store.current()->epoch, 3);
  // The in-flight holder still sees the old snapshot, untouched.
  EXPECT_EQ(held->seq, 0u);
  EXPECT_EQ(held->epoch, -1);
  EXPECT_EQ(store.swaps(), 1u);
}

TEST_F(ServeSnapshotTest, WatcherPublishesNewerCheckpoints) {
  const gcn::ModelConfig mc = serve_model_config();
  SnapshotStore store(
      std::make_shared<const ModelSnapshot>(0, -1, gcn::GcnModel(mc)));
  SnapshotWatcher watcher(dir_, mc, store);

  EXPECT_FALSE(watcher.poll_once());  // empty dir: nothing to do
  gcn::CheckpointManager mgr(dir_);
  mgr.write(5, checkpoint_payload(mc, 100));
  EXPECT_TRUE(watcher.poll_once());
  EXPECT_EQ(store.current()->epoch, 5);
  EXPECT_EQ(store.current()->seq, 1u);
  EXPECT_FALSE(watcher.poll_once());  // same epoch: no re-publish

  mgr.write(9, checkpoint_payload(mc, 200));
  EXPECT_TRUE(watcher.poll_once());
  EXPECT_EQ(store.current()->epoch, 9);
  EXPECT_EQ(store.current()->seq, 2u);
  EXPECT_EQ(watcher.rejected(), 0u);
}

TEST_F(ServeSnapshotTest, CorruptFileKeepsLastKnownGood) {
  const gcn::ModelConfig mc = serve_model_config();
  SnapshotStore store(
      std::make_shared<const ModelSnapshot>(0, -1, gcn::GcnModel(mc)));
  SnapshotWatcher watcher(dir_, mc, store);
  gcn::CheckpointManager mgr(dir_);
  mgr.write(1, checkpoint_payload(mc, 100));
  ASSERT_TRUE(watcher.poll_once());

  // A CRC-corrupt newer file: the frame gate skips it inside load_latest,
  // which falls back to epoch 1 — already published, so no swap.
  {
    std::ofstream out(fs::path(dir_) / "ckpt_000002.bin", std::ios::binary);
    out << "this is not a checkpoint frame at all";
  }
  EXPECT_FALSE(watcher.poll_once());
  EXPECT_EQ(store.current()->epoch, 1);

  // A structurally-corrupt newer file: valid CRC envelope around a
  // payload for a DIFFERENT architecture. decode throws, the watcher
  // rejects, last-known-good stays published.
  gcn::ModelConfig other = mc;
  other.hidden_dim = mc.hidden_dim + 2;
  gcn::CheckpointManager::write_file(
      (fs::path(dir_) / "ckpt_000003.bin").string(),
      checkpoint_payload(other, 300));
  EXPECT_FALSE(watcher.poll_once());
  EXPECT_EQ(store.current()->epoch, 1);
  EXPECT_EQ(watcher.rejected(), 1u);

  // The trainer later rewrites a GOOD epoch-3 checkpoint over the bad
  // one: the watcher must pick it up (rejection did not latch the epoch).
  mgr.write(3, checkpoint_payload(mc, 300));
  EXPECT_TRUE(watcher.poll_once());
  EXPECT_EQ(store.current()->epoch, 3);
}

TEST_F(ServeSnapshotTest, BackgroundWatcherSwapsWhileReadersHold) {
  const gcn::ModelConfig mc = serve_model_config();
  SnapshotStore store(
      std::make_shared<const ModelSnapshot>(0, -1, gcn::GcnModel(mc)));
  SnapshotWatcher watcher(dir_, mc, store);
  watcher.start(/*interval_ms=*/2.0);

  gcn::CheckpointManager mgr(dir_);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto snap = store.current();
      // Touch the model under the shared_ptr: must stay valid across
      // concurrent publishes.
      EXPECT_EQ(snap->model.config().num_classes, mc.num_classes);
    }
  });
  for (int epoch = 1; epoch <= 5; ++epoch) {
    mgr.write(epoch, checkpoint_payload(mc, 100 + epoch));
    std::this_thread::sleep_for(10ms);
  }
  for (int i = 0; i < 200 && store.current()->epoch < 5; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  stop.store(true);
  reader.join();
  watcher.stop();
  EXPECT_EQ(store.current()->epoch, 5);
  EXPECT_EQ(watcher.rejected(), 0u);
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

class ServeEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticParams p;
    p.num_vertices = 300;
    p.num_classes = 4;
    p.feature_dim = 8;
    p.avg_degree = 6.0;
    p.seed = 3;
    ds_ = data::make_synthetic(p);
    gcn::ModelConfig mc;
    mc.in_dim = ds_.feature_dim();
    mc.hidden_dim = 6;
    mc.num_classes = ds_.num_classes();
    mc.num_layers = 2;
    mc.seed = 11;
    snap_ = std::make_shared<const ModelSnapshot>(7, 1, gcn::GcnModel(mc));
    fstore_ = data::FeatureStore::view(ds_.features);
  }

  Ticket infer_ticket(std::vector<graph::Vid> vertices, std::uint64_t id) {
    Ticket t;
    t.conn_id = id;
    t.request.op = Op::kInfer;
    t.request.request_id = id;
    t.request.vertices = std::move(vertices);
    return t;
  }

  data::Dataset ds_;
  std::shared_ptr<const ModelSnapshot> snap_;
  // Zero-copy fp32 store over ds_.features (set up after ds_ in SetUp).
  data::FeatureStore fstore_;
};

TEST_F(ServeEngineTest, ClosureInferenceMatchesFullGraph) {
  gcn::InferenceScratch scratch;
  const tensor::Matrix& full = gcn::infer_logits(
      snap_->model, ds_.graph, ds_.features, scratch, /*threads=*/1);

  InferenceEngine engine(ds_.graph, fstore_);
  std::vector<Ticket> batch;
  batch.push_back(infer_ticket({0, 17, 123}, 1));
  batch.push_back(infer_ticket({250, 17}, 2));  // overlap with batch[0]
  std::vector<Response> out;
  engine.run_batch(*snap_, batch, out, /*threads=*/1);

  ASSERT_EQ(out.size(), 2u);
  // The closure touched far fewer vertices than the graph.
  EXPECT_LT(engine.last_closure_size(), ds_.graph.num_vertices());
  const std::size_t cols = full.cols();
  const std::vector<std::vector<graph::Vid>> wanted = {{0, 17, 123},
                                                       {250, 17}};
  for (std::size_t r = 0; r < out.size(); ++r) {
    ASSERT_EQ(out[r].status, Status::kOk) << out[r].message;
    EXPECT_EQ(out[r].request_id, r + 1);
    EXPECT_EQ(out[r].snapshot_seq, 7u);
    ASSERT_EQ(out[r].rows, wanted[r].size());
    ASSERT_EQ(out[r].cols, cols);
    for (std::size_t i = 0; i < wanted[r].size(); ++i) {
      for (std::size_t c = 0; c < cols; ++c) {
        EXPECT_NEAR(out[r].logits[i * cols + c],
                    full(wanted[r][i], c), 1e-4)
            << "root " << wanted[r][i] << " col " << c;
      }
    }
  }
}

TEST_F(ServeEngineTest, RepliesEqualInferenceOverTheSameClosureBitForBit) {
  // Pruned serving computes only the closure rows each layer reads; every
  // reply row must still be memcmp-equal to full inference over the
  // induced closure the batch touched.
  const std::vector<std::vector<std::vector<graph::Vid>>> batches = {
      {{0, 17, 123}, {250, 17}},  // overlapping tickets
      {{42}},                     // a single root
      {{299, 3, 3}, {}, {8}},     // duplicates, a rejected ticket
  };
  for (const auto aggregator :
       {propagation::AggregatorKind::kMean, propagation::AggregatorKind::kSum,
        propagation::AggregatorKind::kSymmetric}) {
    for (const int layers : {1, 2, 3}) {
      gcn::ModelConfig mc = snap_->model.config();
      mc.aggregator = aggregator;
      mc.num_layers = layers;
      const ModelSnapshot snap(1, 1, gcn::GcnModel(mc));
      for (const int threads : {1, 2}) {
        InferenceEngine engine(ds_.graph, fstore_);
        graph::Inducer inducer(ds_.graph);
        for (const auto& tickets : batches) {
          std::vector<Ticket> batch;
          for (std::size_t i = 0; i < tickets.size(); ++i) {
            batch.push_back(infer_ticket(tickets[i], i + 1));
          }
          std::vector<Response> out;
          engine.run_batch(snap, batch, out, threads);

          const std::vector<graph::Vid>& closure = engine.last_closure();
          const graph::Subgraph sub = inducer.induce(closure);
          tensor::Matrix x(closure.size(), ds_.feature_dim());
          tensor::gather_rows(ds_.features, closure, x);
          gcn::InferenceScratch scratch;
          const tensor::Matrix& want =
              gcn::infer_logits(snap.model, sub.graph, x, scratch, threads);
          std::vector<graph::Vid> local_of(ds_.graph.num_vertices());
          for (std::size_t r = 0; r < closure.size(); ++r) {
            local_of[closure[r]] = static_cast<graph::Vid>(r);
          }
          const std::size_t cols = want.cols();
          ASSERT_EQ(out.size(), tickets.size());
          for (std::size_t t = 0; t < tickets.size(); ++t) {
            if (tickets[t].empty()) {
              EXPECT_EQ(out[t].status, Status::kBadRequest);
              continue;
            }
            ASSERT_EQ(out[t].status, Status::kOk) << out[t].message;
            ASSERT_EQ(out[t].rows, tickets[t].size());
            ASSERT_EQ(out[t].cols, cols);
            for (std::size_t i = 0; i < tickets[t].size(); ++i) {
              EXPECT_EQ(std::memcmp(out[t].logits.data() + i * cols,
                                    want.row(local_of[tickets[t][i]]),
                                    cols * sizeof(float)),
                        0)
                  << propagation::aggregator_name(aggregator) << " L"
                  << layers << " T" << threads << " root "
                  << tickets[t][i];
            }
          }
        }
      }
    }
  }
}

TEST_F(ServeEngineTest, BadVertexFailsThatTicketOnly) {
  InferenceEngine engine(ds_.graph, fstore_);
  std::vector<Ticket> batch;
  batch.push_back(infer_ticket({5, ds_.graph.num_vertices()}, 1));  // bad
  batch.push_back(infer_ticket({5}, 2));                            // good
  batch.push_back(infer_ticket({}, 3));  // empty list is a bad request
  std::vector<Response> out;
  engine.run_batch(*snap_, batch, out, 1);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].status, Status::kBadRequest);
  EXPECT_NE(out[0].message.find("out of range"), std::string::npos);
  EXPECT_EQ(out[1].status, Status::kOk);
  EXPECT_EQ(out[1].rows, 1u);
  EXPECT_EQ(out[2].status, Status::kBadRequest);
}

TEST_F(ServeEngineTest, InjectedFaultPropagatesForInternalErrorMapping) {
  util::FaultInjector::instance().clear();
  util::FaultInjector::instance().arm("serve.infer", 1,
                                      util::FaultKind::kThrow);
  InferenceEngine engine(ds_.graph, fstore_);
  std::vector<Ticket> batch;
  batch.push_back(infer_ticket({1}, 1));
  std::vector<Response> out;
  EXPECT_THROW(engine.run_batch(*snap_, batch, out, 1), util::InjectedFault);
  util::FaultInjector::instance().clear();
}

// ---------------------------------------------------------------------------
// Concurrent checkpoint publish vs load_latest (the trainer-vs-server
// race the snapshot watcher lives on).
// ---------------------------------------------------------------------------

std::string epoch_payload(int epoch) {
  // Distinct sizes per epoch so a torn/mixed read cannot accidentally
  // look complete.
  return std::string(static_cast<std::size_t>(64 + 37 * epoch),
                     static_cast<char>('a' + (epoch % 26)));
}

TEST(ServeCheckpointRace, LoadLatestNeverSeesAPartialSnapshot) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("gsgcn_race_" +
        std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
          .string();
  fs::remove_all(dir);

  constexpr int kEpochs = 60;
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    gcn::CheckpointManager mgr(dir, /*keep=*/2);
    for (int e = 1; e <= kEpochs; ++e) {
      mgr.write(e, epoch_payload(e));
    }
    writer_done.store(true);
  });

  // Reader hammers load_latest the whole time the writer publishes. The
  // invariant under test: every successful load yields the COMPLETE
  // payload of the epoch it claims — tmp files and torn content are
  // invisible thanks to write-then-rename + the CRC gate.
  gcn::CheckpointManager reader(dir, /*keep=*/2);
  std::uint64_t loads = 0;
  int last_epoch = 0;
  while (!writer_done.load() || loads == 0) {
    std::string payload;
    int epoch = -1;
    if (!reader.load_latest(payload, &epoch)) continue;
    ++loads;
    ASSERT_GE(epoch, 1);
    ASSERT_LE(epoch, kEpochs);
    ASSERT_EQ(payload, epoch_payload(epoch)) << "epoch " << epoch;
    // Epochs move forward: rename-over-publish never resurrects old data
    // beyond the retention window race.
    EXPECT_GE(epoch, last_epoch);
    last_epoch = epoch;
  }
  writer.join();
  EXPECT_GT(loads, 0u);
  std::string payload;
  int epoch = -1;
  ASSERT_TRUE(reader.load_latest(payload, &epoch));
  EXPECT_EQ(epoch, kEpochs);
  fs::remove_all(dir);
}

TEST(ServeCheckpointRace, TornWritesNeverReachTheReader) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("gsgcn_race_torn_" +
        std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
          .string();
  fs::remove_all(dir);
  util::FaultInjector::instance().clear();
  util::FaultInjector::instance().set_seed(42);
  // Every third write attempt dies mid-payload (deterministic stream).
  util::FaultInjector::instance().arm_probability(
      "ckpt.torn_write", 0.34, util::FaultKind::kReport);

  gcn::CheckpointManager writer(dir, /*keep=*/3);
  gcn::CheckpointManager reader(dir, /*keep=*/3);
  int written = 0;
  for (int e = 1; e <= 40; ++e) {
    try {
      writer.write(e, epoch_payload(e));
      ++written;
    } catch (const util::InjectedFault&) {
      // Simulated crash mid-write; the tmp file may remain. Readers must
      // never surface it.
    }
    std::string payload;
    int epoch = -1;
    if (reader.load_latest(payload, &epoch)) {
      ASSERT_EQ(payload, epoch_payload(epoch)) << "epoch " << epoch;
    }
  }
  util::FaultInjector::instance().clear();
  ASSERT_GT(written, 0);
  std::string payload;
  int epoch = -1;
  ASSERT_TRUE(reader.load_latest(payload, &epoch));
  EXPECT_EQ(payload, epoch_payload(epoch));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace gsgcn::serve
