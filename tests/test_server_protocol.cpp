// End-to-end protocol tests for the selection service, over socketpairs (no
// filesystem socket, no separate process).  The pins that matter:
//
//   * a second open of an identical config does ZERO selection work — the
//     linalg.qr_colpivot.calls counter must not move;
//   * batched predictions are bit-identical to serial ones at every thread
//     count;
//   * malformed and truncated frames produce structured errors (or a clean
//     close), never a crash or a hang;
//   * shutdown answers everything already in flight before draining.
#include "server/server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/path_selection.h"
#include "core/predictor.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/session.h"
#include "util/json.h"
#include "util/socket.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::server {
namespace {

SessionConfig small_config() {
  SessionConfig cfg;
  cfg.benchmark = "s1196";
  cfg.max_target_paths = 250;
  cfg.max_candidates = 4000;
  cfg.yield_samples = 300;
  return cfg;
}

std::uint64_t counter_value(std::string_view name) {
  const auto snap = util::telemetry::snapshot();
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// A server plus a helper to mint socketpair-backed clients against it.
class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override { util::telemetry::set_enabled(true); }
  void TearDown() override { server.stop(); }

  bool make_client(Client& client) {
    auto [ours, theirs] = util::socket_pair();
    if (!ours.valid() || !theirs.valid()) return false;
    server.serve_fd(std::move(theirs));
    return client.adopt(std::move(ours));
  }

  // Raw connection (no Client): for malformed-byte tests.
  util::Fd make_raw() {
    auto [ours, theirs] = util::socket_pair();
    server.serve_fd(std::move(theirs));
    return std::move(ours);
  }

  Server server;
};

TEST(ServerProtocol, PayloadCodecsRoundTrip) {
  SessionConfig cfg;
  cfg.benchmark = "s38417";
  cfg.epsilon = 0.07;
  cfg.kappa = 2.5;
  cfg.strategy = 2;
  cfg.min_r = 3;
  cfg.max_target_paths = 123;
  cfg.max_candidates = 4567;
  cfg.yield_samples = 89;
  SessionConfig cfg2;
  ASSERT_TRUE(decode_open_session(encode_open_session(cfg), cfg2));
  EXPECT_EQ(cfg2.benchmark, cfg.benchmark);
  EXPECT_EQ(cfg2.epsilon, cfg.epsilon);
  EXPECT_EQ(cfg2.kappa, cfg.kappa);
  EXPECT_EQ(cfg2.strategy, cfg.strategy);
  EXPECT_EQ(cfg2.min_r, cfg.min_r);
  EXPECT_EQ(cfg2.max_target_paths, cfg.max_target_paths);
  EXPECT_EQ(cfg2.max_candidates, cfg.max_candidates);
  EXPECT_EQ(cfg2.yield_samples, cfg.yield_samples);
  EXPECT_EQ(cfg.cache_key(), cfg2.cache_key());

  // Doubles travel as IEEE bits: NaN slots survive.
  const double nan = std::nan("");
  std::uint32_t session = 0;
  std::vector<double> measured;
  ASSERT_TRUE(decode_predict(encode_predict(7, {1.5, nan, -0.0}), session,
                             measured));
  EXPECT_EQ(session, 7u);
  ASSERT_EQ(measured.size(), 3u);
  EXPECT_EQ(measured[0], 1.5);
  EXPECT_TRUE(std::isnan(measured[1]));
  EXPECT_TRUE(std::signbit(measured[2]));

  SessionInfo info;
  info.session = 9;
  info.rank = 74;
  info.n_meas = 5;
  info.n_rem = 245;
  info.eps_r = 0.05;
  info.cached = true;
  info.representatives = {4, 0, 17};
  SessionInfo info2;
  ASSERT_TRUE(decode_session_info(encode_session_info(info), info2));
  EXPECT_EQ(info2.session, 9u);
  EXPECT_EQ(info2.rank, 74u);
  EXPECT_TRUE(info2.cached);
  EXPECT_EQ(info2.representatives, info.representatives);

  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  ASSERT_TRUE(decode_error(
      encode_error(ErrorCode::kUnknownSession, "nope"), code, message));
  EXPECT_EQ(code, ErrorCode::kUnknownSession);
  EXPECT_EQ(message, "nope");

  // Truncated payloads decode to false, never UB.
  const std::string good = encode_open_session(cfg);
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    SessionConfig scratch;
    EXPECT_FALSE(
        decode_open_session(std::string_view(good).substr(0, cut), scratch));
  }
}

// The fuzz harness seeds its open_session corpus from these files; a seed
// that no longer decodes only exercises the rejection path.
TEST(ServerProtocol, CommittedOpenSessionSeedsDecode) {
  std::size_t seeds = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(REPRO_PROTOCOL_CORPUS_DIR)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("open_session_")) continue;
    ++seeds;
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    SessionConfig cfg;
    ASSERT_TRUE(decode_open_session(bytes, cfg)) << name;
    EXPECT_EQ(encode_open_session(cfg), bytes) << name;
  }
  EXPECT_GE(seeds, 2u);
}

TEST_F(ServerFixture, SecondOpenOfSameConfigDoesZeroSelectionWork) {
  Client a;
  Client b;
  ASSERT_TRUE(make_client(a));
  ASSERT_TRUE(make_client(b));

  SessionInfo first;
  ASSERT_TRUE(a.open_session(small_config(), first)) <<
      a.last_error_message();
  EXPECT_FALSE(first.cached);
  EXPECT_GT(first.rank, 0u);
  EXPECT_EQ(first.n_meas, first.representatives.size());

  const std::uint64_t qrcp_after_build =
      counter_value("linalg.qr_colpivot.calls");
  EXPECT_GT(qrcp_after_build, 0u);

  // Same config from another connection: cache hit, zero re-factorization.
  SessionInfo second;
  ASSERT_TRUE(b.open_session(small_config(), second));
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.session, first.session);
  EXPECT_EQ(second.representatives, first.representatives);
  EXPECT_EQ(counter_value("linalg.qr_colpivot.calls"), qrcp_after_build);

  // A different config is a different session and does new work.
  SessionConfig other = small_config();
  other.epsilon = 0.10;
  SessionInfo third;
  ASSERT_TRUE(b.open_session(other, third));
  EXPECT_FALSE(third.cached);
  EXPECT_NE(third.session, first.session);
  EXPECT_GT(counter_value("linalg.qr_colpivot.calls"), qrcp_after_build);
}

// Algorithm 1 run directly on a built session's A, for comparing what the
// server returns.
std::vector<std::int32_t> direct_selection(const Session& s,
                                           core::SelectionStrategy strategy) {
  core::PathSelectionOptions opt;
  opt.epsilon = s.config.epsilon;
  opt.kappa = s.config.kappa;
  opt.strategy = strategy;
  opt.min_r = s.config.min_r;
  const core::PathSelectionResult want = core::select_representative_paths(
      s.experiment->model().a(), s.experiment->t_cons_ps(), opt);
  return {want.representatives.begin(), want.representatives.end()};
}

TEST(ServerLimits, OversizedOpensRejectedStructurallyAndStrategyHonored) {
  util::telemetry::set_enabled(true);
  ServerOptions options;
  options.max_pool_paths = 4000;  // small_config() fits exactly under this
  Server server(options);

  Client client;
  auto [ours, theirs] = util::socket_pair();
  ASSERT_TRUE(ours.valid() && theirs.valid());
  server.serve_fd(std::move(theirs));
  ASSERT_TRUE(client.adopt(std::move(ours)));

  // Pool override beyond the operator ceiling: structured kBadRequest, no
  // build attempted.
  SessionConfig big = small_config();
  big.max_candidates = 4001;
  SessionInfo info;
  EXPECT_FALSE(client.open_session(big, info));
  EXPECT_EQ(client.last_error(), ErrorCode::kBadRequest);
  EXPECT_NE(client.last_error_message().find("max_pool_paths"),
            std::string::npos);

  // The connection stays usable, and each session runs the driver it asked
  // for: its representatives are Algorithm 1's, in pivot order.
  for (const core::SelectionStrategy strategy :
       {core::SelectionStrategy::kBisection,
        core::SelectionStrategy::kGreedySweep}) {
    SessionConfig cfg = small_config();
    cfg.strategy = static_cast<std::uint8_t>(strategy);
    ASSERT_TRUE(client.open_session(cfg, info)) <<
        client.last_error_message();
    EXPECT_EQ(info.n_meas, info.representatives.size());
    const std::shared_ptr<Session> s = server.sessions().find(info.session);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(info.representatives, direct_selection(*s, strategy))
        << static_cast<int>(strategy);

    std::vector<double> measured(info.n_meas, 100.0);
    std::vector<double> predicted;
    EXPECT_TRUE(client.predict(info.session, measured, predicted));
    EXPECT_EQ(predicted.size(), info.n_rem);
  }

  // An open payload in the retired 46-byte layout (a trailing u32 after
  // yield_samples) no longer decodes: structured kBadFrame.
  auto [raw, raw_theirs] = util::socket_pair();
  ASSERT_TRUE(raw.valid() && raw_theirs.valid());
  server.serve_fd(std::move(raw_theirs));
  std::string old_open = encode_open_session(small_config());
  put_u32(old_open, 3);
  ASSERT_EQ(old_open.size(), 46u);
  ASSERT_TRUE(util::send_all(raw.get(), kBinaryMagic, 4));
  ASSERT_TRUE(send_frame(raw.get(), MsgType::kOpenSession, 1, old_open));
  util::BufferedReader reader(raw.get());
  Frame frame;
  ASSERT_EQ(read_frame(reader, frame), FrameReadStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kError);
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  ASSERT_TRUE(decode_error(frame.payload, code, message));
  EXPECT_EQ(code, ErrorCode::kBadFrame);
  server.stop();
}

bool same_bits(std::span<const double> got, std::span<const double> want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size() * sizeof(double)) ==
             0;
}

TEST(SessionBuild, PredictorIsTheCleanTheorem2BuildAndTheCalibratorBase) {
  // A session runs one Theorem-2 build (the robust one) and serves batch
  // predicts from a copy of its base: that copy must be the clean
  // predictor on the same representatives, bit for bit.
  const std::shared_ptr<Session> s = build_session(small_config(), 1);
  const variation::VariationModel& model = s->experiment->model();
  const core::LinearPredictor want = core::make_path_predictor(
      model.a(), model.mu_paths(), s->selection.representatives);
  const core::LinearPredictor& served = s->predictor;
  const core::LinearPredictor& base = s->calibrator->predictor().base;
  for (const core::LinearPredictor* got : {&served, &base}) {
    EXPECT_EQ(got->measured_paths, want.measured_paths);
    EXPECT_EQ(got->remaining, want.remaining);
    EXPECT_EQ(got->measured_segments, want.measured_segments);
    EXPECT_EQ(got->coef.rows(), want.coef.rows());
    EXPECT_EQ(got->coef.cols(), want.coef.cols());
    EXPECT_TRUE(same_bits(got->coef.data(), want.coef.data()));
    EXPECT_TRUE(same_bits(got->mu_meas, want.mu_meas));
    EXPECT_TRUE(same_bits(got->mu_rem, want.mu_rem));
    EXPECT_TRUE(same_bits(got->error_sigmas(), want.error_sigmas()));
  }
  EXPECT_EQ(s->calibrator->predictor().status.health,
            core::PredictorHealth::kOk);
}

TEST_F(ServerFixture, BatchedPredictsBitIdenticalToSerialAtAnyThreadCount) {
  Client opener;
  ASSERT_TRUE(make_client(opener));
  SessionInfo info;
  ASSERT_TRUE(opener.open_session(small_config(), info));

  const std::shared_ptr<Session> session = server.sessions().find(info.session);
  ASSERT_NE(session, nullptr);

  constexpr int kClients = 6;
  constexpr int kPredictsEach = 4;
  const std::size_t saved_threads = util::thread_count();
  for (const std::size_t nt : {std::size_t{1}, std::size_t{4}}) {
    util::set_threads(nt);
    // Concurrent clients force the batcher to gather panels; every result
    // must still match the serial single-die predict bit for bit.
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client;
        if (!make_client(client)) {
          failures[c] = "client setup failed";
          return;
        }
        for (int k = 0; k < kPredictsEach; ++k) {
          std::vector<double> measured(info.n_meas);
          for (std::uint32_t j = 0; j < info.n_meas; ++j) {
            measured[j] = 100.0 * c + 7.0 * k + 0.31 * j +
                          (j % 3 == 0 ? 0.125 : -0.5);
          }
          std::vector<double> predicted;
          if (!client.predict(info.session, measured, predicted)) {
            failures[c] = client.last_error_message();
            return;
          }
          const linalg::Vector serial = session->predictor.predict(measured);
          if (predicted.size() != serial.size()) {
            failures[c] = "size mismatch";
            return;
          }
          if (std::memcmp(predicted.data(), serial.data(),
                          serial.size() * sizeof(double)) != 0) {
            failures[c] = "batched result differs from serial bits";
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(failures[c], "") << "client " << c << " at " << nt
                                 << " threads";
    }
  }
  util::set_threads(saved_threads);
  EXPECT_GE(session->batcher->dies(),
            static_cast<std::uint64_t>(2 * kClients * kPredictsEach));
}

TEST_F(ServerFixture, BadMagicGetsStructuredErrorThenClose) {
  util::Fd raw = make_raw();
  ASSERT_TRUE(util::send_all(raw.get(), "XXXX", 4));
  util::BufferedReader reader(raw.get());
  Frame frame;
  ASSERT_EQ(read_frame(reader, frame), FrameReadStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kError);
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  ASSERT_TRUE(decode_error(frame.payload, code, message));
  EXPECT_EQ(code, ErrorCode::kBadMagic);
  EXPECT_EQ(read_frame(reader, frame), FrameReadStatus::kEof);
}

TEST_F(ServerFixture, MalformedFramesGetStructuredErrorsNeverHang) {
  util::Fd raw = make_raw();
  ASSERT_TRUE(util::send_all(raw.get(), kBinaryMagic, 4));
  util::BufferedReader reader(raw.get());
  Frame frame;

  // Unknown message type: structured error, connection stays usable.
  ASSERT_TRUE(send_frame(raw.get(), static_cast<MsgType>(0x55), 11, "??"));
  ASSERT_EQ(read_frame(reader, frame), FrameReadStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kError);
  EXPECT_EQ(frame.seq, 11u);
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  ASSERT_TRUE(decode_error(frame.payload, code, message));
  EXPECT_EQ(code, ErrorCode::kUnknownType);

  // Garbage payload for a known type: kBadFrame, still usable.
  ASSERT_TRUE(send_frame(raw.get(), MsgType::kPredict, 12, "garbage"));
  ASSERT_EQ(read_frame(reader, frame), FrameReadStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kError);
  ASSERT_TRUE(decode_error(frame.payload, code, message));
  EXPECT_EQ(code, ErrorCode::kBadFrame);

  // Unknown session: structured, still usable.
  ASSERT_TRUE(send_frame(raw.get(), MsgType::kPredict, 13,
                         encode_predict(4242, {1.0})));
  ASSERT_EQ(read_frame(reader, frame), FrameReadStatus::kOk);
  ASSERT_TRUE(decode_error(frame.payload, code, message));
  EXPECT_EQ(code, ErrorCode::kUnknownSession);

  // Semantically invalid open: kBadRequest, still usable.
  SessionConfig bad = small_config();
  bad.benchmark = "../../etc/passwd";
  ASSERT_TRUE(send_frame(raw.get(), MsgType::kOpenSession, 14,
                         encode_open_session(bad)));
  ASSERT_EQ(read_frame(reader, frame), FrameReadStatus::kOk);
  ASSERT_TRUE(decode_error(frame.payload, code, message));
  EXPECT_EQ(code, ErrorCode::kBadRequest);

  // The connection survived all of that: ping echoes.
  ASSERT_TRUE(send_frame(raw.get(), MsgType::kPing, 15, "echo"));
  ASSERT_EQ(read_frame(reader, frame), FrameReadStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kPong);
  EXPECT_EQ(frame.seq, 15u);
  EXPECT_EQ(frame.payload, "echo");

  // A frame length below the header minimum is unrecoverable: error, close.
  std::string tiny;
  put_u32(tiny, 2);
  tiny += "ab";
  ASSERT_TRUE(util::send_all(raw.get(), tiny.data(), tiny.size()));
  ASSERT_EQ(read_frame(reader, frame), FrameReadStatus::kOk);
  ASSERT_TRUE(decode_error(frame.payload, code, message));
  EXPECT_EQ(code, ErrorCode::kBadFrame);
  EXPECT_EQ(read_frame(reader, frame), FrameReadStatus::kEof);
}

TEST_F(ServerFixture, OversizedFrameIsRejectedAndClosed) {
  util::Fd raw = make_raw();
  ASSERT_TRUE(util::send_all(raw.get(), kBinaryMagic, 4));
  std::string huge_header;
  put_u32(huge_header, kMaxFrameLen + 1);
  ASSERT_TRUE(
      util::send_all(raw.get(), huge_header.data(), huge_header.size()));
  util::BufferedReader reader(raw.get());
  Frame frame;
  ASSERT_EQ(read_frame(reader, frame), FrameReadStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kError);
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  ASSERT_TRUE(decode_error(frame.payload, code, message));
  EXPECT_EQ(code, ErrorCode::kFrameTooLarge);
  EXPECT_EQ(read_frame(reader, frame), FrameReadStatus::kEof);
}

TEST_F(ServerFixture, TruncatedFrameClosesCleanly) {
  util::Fd raw = make_raw();
  ASSERT_TRUE(util::send_all(raw.get(), kBinaryMagic, 4));
  // Announce 100 payload bytes, deliver 3, hang up.
  std::string partial;
  put_u32(partial, 100);
  partial += "\x02";
  put_u32(partial, 1);
  partial += "abc";
  ASSERT_TRUE(util::send_all(raw.get(), partial.data(), partial.size()));
  raw.shutdown_write();
  // The strand must treat this as EOF and exit; stop() would hang forever
  // if it did not.  No response is owed for a frame that never finished.
  util::BufferedReader reader(raw.get());
  Frame frame;
  EXPECT_EQ(read_frame(reader, frame), FrameReadStatus::kEof);
  server.stop();
}

TEST_F(ServerFixture, ObserveStreamsThroughTheSessionCalibrator) {
  Client client;
  ASSERT_TRUE(make_client(client));
  SessionInfo info;
  ASSERT_TRUE(client.open_session(small_config(), info));

  std::vector<double> measured(info.n_meas, 300.0);
  measured[0] = std::nan("");  // dead tester slot
  std::vector<std::uint8_t> valid(info.n_meas, 1);
  if (info.n_meas > 1) valid[1] = 0;  // explicitly dropped
  ObserveOutcome outcome;
  ASSERT_TRUE(client.observe(info.session, measured, valid, outcome))
      << client.last_error_message();
  EXPECT_EQ(outcome.predicted.size(), info.n_rem);
  // The gate value decodes to a named enum either way.
  EXPECT_NE(core::to_string(static_cast<core::StreamGate>(outcome.gate)),
            nullptr);

  // Mismatched mask length is a structured error.
  ASSERT_FALSE(client.observe(info.session, measured, {1, 0}, outcome));
  EXPECT_EQ(client.last_error(), ErrorCode::kBadRequest);
}

TEST_F(ServerFixture, ShutdownAnswersInFlightRequestsFirst) {
  Client opener;
  ASSERT_TRUE(make_client(opener));
  SessionInfo info;
  ASSERT_TRUE(opener.open_session(small_config(), info));

  // Write several predicts AND the shutdown in one burst before reading
  // anything: every request accepted ahead of the shutdown must still be
  // answered, in order, before the ack.
  util::Fd raw = make_raw();
  ASSERT_TRUE(util::send_all(raw.get(), kBinaryMagic, 4));
  constexpr std::uint32_t kInFlight = 5;
  const std::vector<double> measured(info.n_meas, 1.0);
  std::string burst;
  for (std::uint32_t k = 0; k < kInFlight; ++k) {
    append_frame(burst, MsgType::kPredict, 100 + k,
                 encode_predict(info.session, measured));
  }
  append_frame(burst, MsgType::kShutdown, 100 + kInFlight, "");
  ASSERT_TRUE(util::send_all(raw.get(), burst.data(), burst.size()));

  util::BufferedReader reader(raw.get());
  Frame frame;
  for (std::uint32_t k = 0; k < kInFlight; ++k) {
    ASSERT_EQ(read_frame(reader, frame), FrameReadStatus::kOk) << k;
    EXPECT_EQ(frame.type, MsgType::kPredictResult);
    EXPECT_EQ(frame.seq, 100 + k);
  }
  ASSERT_EQ(read_frame(reader, frame), FrameReadStatus::kOk);
  EXPECT_EQ(frame.type, MsgType::kShutdownAck);
  EXPECT_TRUE(server.shutting_down());

  server.stop();
  // After the drain every connection is gone; the idle client fails fast
  // (EOF-driven transport error) instead of hanging.
  EXPECT_FALSE(opener.ping());
}

TEST_F(ServerFixture, JsonFrontEndSpeaksStrictJson) {
  util::Fd raw = make_raw();
  util::BufferedReader reader(raw.get());
  const auto rpc = [&](const std::string& line) {
    std::string wire = line;
    wire += '\n';
    EXPECT_TRUE(util::send_all(raw.get(), wire.data(), wire.size()));
    std::string response;
    EXPECT_TRUE(reader.read_line(response, 1u << 22));
    return response;
  };

  const util::json::Value pong = util::json::parse_or_throw(
      rpc("{\"op\": \"ping\", \"id\": 1}"));
  EXPECT_EQ(pong.number_or("id", -1), 1.0);
  EXPECT_TRUE(pong.find("pong")->boolean);

  const util::json::Value opened = util::json::parse_or_throw(rpc(
      "{\"op\": \"open_session\", \"id\": 2, \"benchmark\": \"s1196\", "
      "\"strategy\": \"bisection\", \"max_target_paths\": 250, "
      "\"max_candidates\": 4000, \"yield_samples\": 300}"));
  ASSERT_TRUE(opened.find("ok")->boolean);
  const auto session = static_cast<std::uint32_t>(
      opened.number_or("session", 0));
  const auto n_meas =
      static_cast<std::size_t>(opened.number_or("n_meas", 0));
  ASSERT_GT(n_meas, 0u);

  // Predict through JSON; values must round-trip to the serial bits (the
  // wire uses shortest-round-trip formatting).
  std::string req = "{\"op\": \"predict\", \"id\": 3, \"session\": ";
  req += std::to_string(session);
  req += ", \"measured\": [";
  std::vector<double> measured(n_meas);
  for (std::size_t j = 0; j < n_meas; ++j) {
    measured[j] = 250.0 + 0.33 * static_cast<double>(j);
    if (j > 0) req += ',';
    req += util::json::json_double(measured[j]);
  }
  req += "]}";
  const util::json::Value predicted = util::json::parse_or_throw(rpc(req));
  ASSERT_TRUE(predicted.find("ok")->boolean);
  const std::shared_ptr<Session> s = server.sessions().find(session);
  ASSERT_NE(s, nullptr);
  const linalg::Vector serial = s->predictor.predict(measured);
  const util::json::Value* values = predicted.find("predicted");
  ASSERT_NE(values, nullptr);
  ASSERT_EQ(values->items.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(values->items[i].number, serial[i]) << i;
  }

  // Malformed line: structured error, connection survives.
  const util::json::Value err = util::json::parse_or_throw(rpc("{oops"));
  EXPECT_FALSE(err.find("ok")->boolean);
  EXPECT_EQ(err.number_or("code", 0),
            static_cast<double>(ErrorCode::kBadFrame));
  const util::json::Value still = util::json::parse_or_throw(
      rpc("{\"op\": \"ping\", \"id\": 9}"));
  EXPECT_TRUE(still.find("pong")->boolean);

  // Integer fields take only integers in [0, 2^32).  A negative, huge,
  // fractional or non-numeric value answers kBadRequest; it is neither cast
  // (undefined behaviour for -1 or 1e300) nor replaced by the default.
  const std::size_t sessions_before = server.sessions().size();
  const auto expect_bad_request = [&](const std::string& line,
                                      std::string_view why) {
    const util::json::Value r = util::json::parse_or_throw(rpc(line));
    EXPECT_FALSE(r.find("ok")->boolean) << line;
    EXPECT_EQ(r.number_or("code", 0),
              static_cast<double>(ErrorCode::kBadRequest))
        << line;
    EXPECT_NE(r.string_or("error", "").find(why), std::string::npos)
        << line << " -> " << r.string_or("error", "");
  };
  for (const char* op : {"predict", "observe", "session_info"}) {
    for (const char* value : {"-1", "1e300", "4294967296", "1.5", "\"0\""}) {
      expect_bad_request(std::string("{\"op\": \"") + op +
                             "\", \"id\": 11, \"session\": " + value +
                             ", \"measured\": []}",
                         "session must be an integer in [0, 2^32)");
    }
  }
  for (const char* key :
       {"min_r", "max_target_paths", "max_candidates", "yield_samples"}) {
    for (const char* value : {"-1", "1e300", "4294967296", "2.5", "null"}) {
      expect_bad_request(std::string("{\"op\": \"open_session\", \"id\": 12, "
                                     "\"benchmark\": \"s1196\", \"") +
                             key + "\": " + value + "}",
                         std::string(key) + " must be an integer in [0, 2^32)");
    }
  }
  expect_bad_request(
      "{\"op\": \"open_session\", \"id\": 12, \"benchmark\": \"s1196\", "
      "\"strategy\": 1.5}",
      "unknown strategy");
  // An integer above the pool ceiling gets the binary protocol's answer
  // instead of opening (and caching) a default-pool session.
  expect_bad_request(
      "{\"op\": \"open_session\", \"id\": 13, \"benchmark\": \"s1196\", "
      "\"max_target_paths\": 2000000}",
      "pool override out of range");
  EXPECT_EQ(server.sessions().size(), sessions_before);

  // The metrics scrape parses strictly and carries the server counters.
  const util::json::Value metrics = util::json::parse_or_throw(
      rpc("{\"op\": \"metrics\", \"id\": 10}"));
  const util::json::Value* counters = metrics.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("server.requests"), nullptr);
}

}  // namespace
}  // namespace repro::server
