#include "server/server.h"

#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <utility>

#include "util/json.h"
#include "util/telemetry.h"

namespace repro::server {
namespace {

using util::json::Value;

constexpr std::size_t kMaxJsonLine = 1u << 20;
// Pool-override ceilings: far beyond paper scale, but a hostile open must
// not be able to request an absurd build.
constexpr std::uint32_t kMaxPoolOverride = 1u << 20;

std::optional<std::string> validate_config(const SessionConfig& cfg,
                                           const ServerOptions& options) {
  if (cfg.benchmark.empty() || cfg.benchmark.size() > 64) {
    return "benchmark name must be 1..64 characters";
  }
  for (const char c : cfg.benchmark) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return "benchmark name has invalid characters";
  }
  if (!(cfg.epsilon > 0.0) || !(cfg.epsilon < 1.0)) {
    return "epsilon must be in (0, 1)";
  }
  if (!(cfg.kappa > 0.0) || !(cfg.kappa <= 100.0)) {
    return "kappa must be in (0, 100]";
  }
  if (cfg.strategy > 2) {
    return "strategy must be 0 (linear), 1 (bisection), or 2 (greedy)";
  }
  if (cfg.min_r < 1 || cfg.min_r > kMaxPoolOverride) {
    return "min_r out of range";
  }
  if (cfg.max_target_paths > kMaxPoolOverride ||
      cfg.max_candidates > kMaxPoolOverride ||
      cfg.yield_samples > kMaxPoolOverride) {
    return "pool override out of range";
  }
  // Operator-configured admission ceilings: reject an oversized build here,
  // structurally, instead of discovering it as an OOM mid-session-build.
  if (cfg.max_target_paths > options.max_pool_paths ||
      cfg.max_candidates > options.max_pool_paths) {
    return "pool override exceeds server max_pool_paths limit";
  }
  return std::nullopt;
}

// JSON measurement arrays may use null for a dead/dropped slot; it maps to
// NaN, which the robust path treats as missing (mirrors json_double's
// non-finite -> null rendering on the way out).
bool parse_measured(const Value* v, std::vector<double>& out) {
  if (v == nullptr || v->kind != util::json::Kind::kArray) return false;
  out.clear();
  out.reserve(v->items.size());
  for (const Value& item : v->items) {
    if (item.kind == util::json::Kind::kNumber) {
      out.push_back(item.number);
    } else if (item.kind == util::json::Kind::kNull) {
      out.push_back(std::numeric_limits<double>::quiet_NaN());
    } else {
      return false;
    }
  }
  return true;
}

void append_doubles(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += util::json::json_double(v[i]);
  }
  out += ']';
}

std::string json_error(std::uint32_t id, ErrorCode code,
                       std::string_view message) {
  std::string out = "{\"id\":";
  out += std::to_string(id);
  out += ",\"ok\":false,\"code\":";
  out += std::to_string(static_cast<std::uint32_t>(code));
  out += ",\"error\":\"";
  out += util::json::escape(to_string(code));
  out += ": ";
  out += util::json::escape(message);
  out += "\"}";
  return out;
}

void append_session_info(std::string& out, const SessionInfo& info) {
  out += "\"session\":";
  out += std::to_string(info.session);
  out += ",\"rank\":";
  out += std::to_string(info.rank);
  out += ",\"n_meas\":";
  out += std::to_string(info.n_meas);
  out += ",\"n_rem\":";
  out += std::to_string(info.n_rem);
  out += ",\"eps_r\":";
  out += util::json::json_double(info.eps_r);
  out += ",\"cached\":";
  out += info.cached ? "true" : "false";
  out += ",\"representatives\":[";
  for (std::size_t i = 0; i < info.representatives.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(info.representatives[i]);
  }
  out += ']';
}

bool parse_strategy(const Value& req, std::uint8_t& strategy) {
  const Value* v = req.find("strategy");
  if (v == nullptr) return true;  // keep default
  if (v->kind == util::json::Kind::kNumber) {
    if (!(v->number >= 0 && v->number <= 2) ||
        v->number != std::floor(v->number)) {
      return false;
    }
    strategy = static_cast<std::uint8_t>(v->number);
    return true;
  }
  if (v->kind == util::json::Kind::kString) {
    if (v->string == "linear") {
      strategy = 0;
    } else if (v->string == "bisection") {
      strategy = 1;
    } else if (v->string == "greedy") {
      strategy = 2;
    } else {
      return false;
    }
    return true;
  }
  return false;
}

// Reads an unsigned 32-bit member into `out`.  An absent key leaves `out`
// as it is; anything but an integral number in [0, 2^32) -- negative,
// fractional, too large, or not a number -- returns the kBadRequest message.
// The range is checked on the double, before the conversion that would be
// undefined behaviour outside it.
std::optional<std::string> read_u32(const Value& req, std::string_view key,
                                    std::uint32_t& out) {
  const Value* v = req.find(key);
  if (v == nullptr) return std::nullopt;
  const double x = v->number;
  if (v->kind != util::json::Kind::kNumber || !(x >= 0.0 && x < 4294967296.0) ||
      x != std::floor(x)) {
    return std::string(key) + " must be an integer in [0, 2^32)";
  }
  out = static_cast<std::uint32_t>(x);
  return std::nullopt;
}

}  // namespace

Server::Server(ServerOptions options) : options_(options) {}

Server::~Server() { stop(); }

bool Server::listen(const std::string& path) {
  listener_ = util::unix_listen(path, options_.backlog);
  if (!listener_.valid()) return false;
  path_ = path;
  return true;
}

void Server::run() {
  while (!shutting_down_.load()) {
    util::Fd fd = util::accept_connection(listener_.get());
    if (!fd.valid()) break;  // listener shut down or hard error
    if (shutting_down_.load()) break;
    reap_finished();
    serve_fd(std::move(fd));
  }
  drain();
}

void Server::serve_fd(util::Fd fd) {
  if (shutting_down_.load() || !fd.valid()) return;  // fd closes on return
  util::telemetry::count("server.connections");
  auto conn = std::make_unique<Conn>();
  Conn* raw = conn.get();
  raw->fd = std::move(fd);
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns_.push_back(std::move(conn));
  }
  raw->thread = std::thread([this, raw] {
    handle_connection(raw);
    // Half-close so the peer sees EOF immediately; the fd itself stays
    // open (owned by the Conn) until reap_finished()/drain(), so a
    // concurrent drain() may still safely shutdown_read() it.
    raw->fd.shutdown_write();
    raw->done.store(true);
  });
}

void Server::request_shutdown() {
  shutting_down_.store(true);
  // Unblocks a run() parked in accept; harmless when not listening.
  listener_.shutdown_read();
}

void Server::stop() {
  request_shutdown();
  drain();
}

void Server::reap_finished() {
  // Unlink finished connections under the lock, join outside it: a join is
  // a blocking wait, and holding conns_mu_ through it would stall drain()
  // and the acceptor against a strand that is still flushing its goodbye.
  std::vector<std::unique_ptr<Conn>> finished;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (std::size_t i = 0; i < conns_.size();) {
      if (conns_[i]->done.load()) {
        finished.push_back(std::move(conns_[i]));
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (const auto& c : finished) {
    if (c->thread.joinable()) c->thread.join();
  }
}

void Server::drain() {
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns.swap(conns_);
  }
  // Wake readers parked in recv; their strands answer anything already
  // read, then exit on the EOF.
  for (const auto& c : conns) c->fd.shutdown_read();
  for (const auto& c : conns) {
    if (c->thread.joinable()) c->thread.join();
  }
}

void Server::handle_connection(Conn* conn) {
  util::BufferedReader in(conn->fd.get());
  unsigned char first = 0;
  if (!in.peek_byte(first)) return;
  if (first == '{') {
    serve_json(conn, in);
    return;
  }
  char magic[4] = {0, 0, 0, 0};
  if (!in.read_exact(magic, sizeof(magic))) return;
  if (std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    send_frame(conn->fd.get(), MsgType::kError, 0,
               encode_error(ErrorCode::kBadMagic,
                            "expected RPB1 preamble or a JSON line"));
    return;
  }
  serve_binary(conn, in);
}

void Server::serve_binary(Conn* conn, util::BufferedReader& in) {
  std::string out;
  const auto flush = [&] {
    if (out.empty()) return true;
    const bool sent = util::send_all(conn->fd.get(), out.data(), out.size());
    out.clear();
    return sent;
  };
  // Appends the structured framing error (nothing for kEof) and flushes;
  // the connection closes either way.
  const auto framing_exit = [&](FrameReadStatus st) {
    if (st == FrameReadStatus::kTooLarge) {
      // The oversized body was never read: the stream is unrecoverable.
      append_frame(out, MsgType::kError, 0,
                   encode_error(ErrorCode::kFrameTooLarge,
                                "frame length above limit"));
    } else if (st == FrameReadStatus::kMalformed) {
      append_frame(out, MsgType::kError, 0,
                   encode_error(ErrorCode::kBadFrame,
                                "frame length below header size"));
    }
    flush();
  };
  bool have_next = false;
  Frame frame;
  for (;;) {
    if (!have_next) {
      // Flush before any read that could block: if the next frame is not
      // already buffered, the client may be waiting on these responses
      // before it sends more.
      if (!has_complete_buffered_frame(in) && !flush()) return;
      const FrameReadStatus st = read_frame(in, frame);
      if (st != FrameReadStatus::kOk) {
        framing_exit(st);
        return;
      }
    }
    have_next = false;
    if (frame.type == MsgType::kPredict) {
      const FrameReadStatus st =
          gather_predict_run(frame, in, out, have_next);
      if (st != FrameReadStatus::kOk) {
        framing_exit(st);
        return;
      }
      continue;
    }
    dispatch_binary(frame, out);
  }
}

FrameReadStatus Server::gather_predict_run(Frame& frame,
                                           util::BufferedReader& in,
                                           std::string& out,
                                           bool& have_trailing) {
  have_trailing = false;
  std::uint32_t session = 0;
  std::vector<std::vector<double>> rows(1);
  if (!decode_predict(frame.payload, session, rows[0])) {
    dispatch_binary(frame, out);  // single-frame kBadFrame path
    return FrameReadStatus::kOk;
  }
  const std::shared_ptr<Session> s =
      shutting_down_.load() ? nullptr : sessions_.find(session);
  if (s == nullptr || rows[0].size() != s->predictor.mu_meas.size()) {
    dispatch_binary(frame, out);  // structured per-request error path
    return FrameReadStatus::kOk;
  }
  const std::size_t n_meas = s->predictor.mu_meas.size();

  // Sweep the already-buffered tail of the pipeline into this block: every
  // decodable predict for the same session joins; the first frame that
  // does not is handed back to the caller for ordinary dispatch (responses
  // keep request order because the block is answered first).
  std::vector<std::uint32_t> seqs{frame.seq};
  FrameReadStatus status = FrameReadStatus::kOk;
  while (has_complete_buffered_frame(in)) {
    Frame next;
    status = read_frame(in, next);
    if (status != FrameReadStatus::kOk) break;  // run still gets answered
    bool joined = false;
    if (next.type == MsgType::kPredict) {
      std::uint32_t next_session = 0;
      std::vector<double> row;
      if (decode_predict(next.payload, next_session, row) &&
          next_session == session && row.size() == n_meas) {
        rows.push_back(std::move(row));
        seqs.push_back(next.seq);
        joined = true;
      }
    }
    if (!joined) {
      frame = std::move(next);
      have_trailing = true;
      break;
    }
  }

  util::telemetry::count("server.requests", rows.size());
  std::vector<std::vector<double>> outs;
  if (s->batcher->predict_block(rows, outs)) {
    // One response frame per row: 9 header bytes + count + the doubles.
    out.reserve(out.size() +
                seqs.size() * (13u + 8u * s->predictor.mu_rem.size()));
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      append_f64_vector_frame(out, MsgType::kPredictResult, seqs[i], outs[i]);
    }
  } else {
    for (const std::uint32_t seq : seqs) {
      append_frame(out, MsgType::kError, seq,
                   encode_error(ErrorCode::kInternal,
                                "panel prediction failed"));
    }
  }
  return status;
}

void Server::dispatch_binary(const Frame& frame, std::string& out) {
  util::telemetry::count("server.requests");
  const std::uint32_t seq = frame.seq;
  const auto reply = [&](MsgType type, std::string_view payload) {
    append_frame(out, type, seq, payload);
  };
  const auto reply_error = [&](ErrorCode code, std::string_view msg) {
    reply(MsgType::kError, encode_error(code, msg));
  };
  switch (frame.type) {
    case MsgType::kPing:
      return reply(MsgType::kPong, frame.payload);
    case MsgType::kShutdown: {
      // Flag first, then ack: once the client sees the ack, the server is
      // guaranteed to be draining (new opens are already refused).
      request_shutdown();
      return reply(MsgType::kShutdownAck, {});
    }
    case MsgType::kMetrics:
      return reply(MsgType::kMetricsResult, util::telemetry::to_json());
    case MsgType::kOpenSession: {
      SessionConfig cfg;
      if (!decode_open_session(frame.payload, cfg)) {
        return reply_error(ErrorCode::kBadFrame, "open_session payload");
      }
      SessionInfo info;
      if (const auto err = do_open(cfg, info)) {
        return reply_error(err->code, err->message);
      }
      return reply(MsgType::kSessionOpened, encode_session_info(info));
    }
    case MsgType::kPredict: {
      std::uint32_t session = 0;
      std::vector<double> measured;
      if (!decode_predict(frame.payload, session, measured)) {
        return reply_error(ErrorCode::kBadFrame, "predict payload");
      }
      std::vector<double> predicted;
      if (const auto err = do_predict(session, measured, predicted)) {
        return reply_error(err->code, err->message);
      }
      return append_f64_vector_frame(out, MsgType::kPredictResult, seq,
                                     predicted);
    }
    case MsgType::kObserve: {
      std::uint32_t session = 0;
      std::vector<double> measured;
      std::vector<std::uint8_t> valid;
      if (!decode_observe(frame.payload, session, measured, valid)) {
        return reply_error(ErrorCode::kBadFrame, "observe payload");
      }
      ObserveOutcome outcome;
      if (const auto err = do_observe(session, measured, valid, outcome)) {
        return reply_error(err->code, err->message);
      }
      return reply(MsgType::kObserveResult, encode_observe_outcome(outcome));
    }
    case MsgType::kSessionInfo: {
      PayloadReader r(frame.payload);
      std::uint32_t session = 0;
      if (!r.get_u32(session) || !r.exhausted()) {
        return reply_error(ErrorCode::kBadFrame, "session_info payload");
      }
      SessionInfo info;
      if (const auto err = do_session_info(session, info)) {
        return reply_error(err->code, err->message);
      }
      return reply(MsgType::kSessionInfoResult, encode_session_info(info));
    }
    default:
      return reply_error(ErrorCode::kUnknownType, "unrecognized message type");
  }
}

void Server::serve_json(Conn* conn, util::BufferedReader& in) {
  std::string line;
  while (in.read_line(line, kMaxJsonLine)) {
    if (line.empty()) continue;
    std::string response = dispatch_json(line);
    response += '\n';
    if (!util::send_all(conn->fd.get(), response.data(), response.size())) {
      return;
    }
  }
}

std::string Server::dispatch_json(const std::string& line) {
  util::telemetry::count("server.requests");
  Value req;
  std::string parse_err;
  if (!util::json::parse(line, req, parse_err)) {
    return json_error(0, ErrorCode::kBadFrame, parse_err);
  }
  if (req.kind != util::json::Kind::kObject) {
    return json_error(0, ErrorCode::kBadFrame, "request must be an object");
  }
  const double id_raw = req.number_or("id", 0.0);
  const std::uint32_t id =
      (id_raw >= 0 && id_raw <= 4294967295.0)
          ? static_cast<std::uint32_t>(id_raw)
          : 0;
  const std::string op = req.string_or("op", "");
  std::string out = "{\"id\":";
  out += std::to_string(id);
  out += ",\"ok\":true";

  if (op == "ping") {
    out += ",\"pong\":true}";
    return out;
  }
  if (op == "shutdown") {
    request_shutdown();
    out += ",\"shutting_down\":true}";
    return out;
  }
  if (op == "metrics") {
    out += ",\"metrics\":";
    out += util::telemetry::to_json();
    out += '}';
    return out;
  }
  if (op == "open_session") {
    SessionConfig cfg;
    cfg.benchmark = req.string_or("benchmark", cfg.benchmark);
    cfg.epsilon = req.number_or("epsilon", cfg.epsilon);
    cfg.kappa = req.number_or("kappa", cfg.kappa);
    if (!parse_strategy(req, cfg.strategy)) {
      return json_error(id, ErrorCode::kBadRequest, "unknown strategy");
    }
    // Range limits beyond the integer check are validate_config's, shared
    // with the binary protocol.
    for (const auto& [key, field] :
         {std::pair{"min_r", &cfg.min_r},
          std::pair{"max_target_paths", &cfg.max_target_paths},
          std::pair{"max_candidates", &cfg.max_candidates},
          std::pair{"yield_samples", &cfg.yield_samples}}) {
      if (const auto why = read_u32(req, key, *field)) {
        return json_error(id, ErrorCode::kBadRequest, *why);
      }
    }
    SessionInfo info;
    if (const auto err = do_open(cfg, info)) {
      return json_error(id, err->code, err->message);
    }
    out += ',';
    append_session_info(out, info);
    out += '}';
    return out;
  }
  if (op == "predict" || op == "observe") {
    std::uint32_t session = 0;
    if (const auto why = read_u32(req, "session", session)) {
      return json_error(id, ErrorCode::kBadRequest, *why);
    }
    std::vector<double> measured;
    if (!parse_measured(req.find("measured"), measured)) {
      return json_error(id, ErrorCode::kBadRequest,
                        "measured must be an array of numbers/nulls");
    }
    if (op == "predict") {
      std::vector<double> predicted;
      if (const auto err = do_predict(session, measured, predicted)) {
        return json_error(id, err->code, err->message);
      }
      out += ",\"predicted\":";
      append_doubles(out, predicted);
      out += '}';
      return out;
    }
    std::vector<std::uint8_t> valid;
    if (const Value* v = req.find("valid")) {
      if (v->kind != util::json::Kind::kArray) {
        return json_error(id, ErrorCode::kBadRequest, "valid must be an array");
      }
      valid.reserve(v->items.size());
      for (const Value& item : v->items) {
        if (item.kind == util::json::Kind::kBool) {
          valid.push_back(item.boolean ? 1 : 0);
        } else if (item.kind == util::json::Kind::kNumber) {
          valid.push_back(item.number != 0.0 ? 1 : 0);
        } else {
          return json_error(id, ErrorCode::kBadRequest,
                            "valid entries must be bools or numbers");
        }
      }
    }
    ObserveOutcome outcome;
    if (const auto err = do_observe(session, measured, valid, outcome)) {
      return json_error(id, err->code, err->message);
    }
    out += ",\"accepted\":";
    out += outcome.accepted ? "true" : "false";
    out += ",\"gate\":\"";
    out += core::to_string(static_cast<core::StreamGate>(outcome.gate));
    out += "\",\"health\":\"";
    out += core::to_string(static_cast<core::PredictorHealth>(outcome.health));
    out += "\",\"drift_flagged\":";
    out += outcome.drift_flagged ? "true" : "false";
    out += ",\"drift_score\":";
    out += util::json::json_double(outcome.drift_score);
    out += ",\"guardband\":";
    out += util::json::json_double(outcome.guardband);
    out += ",\"predicted\":";
    append_doubles(out, outcome.predicted);
    out += '}';
    return out;
  }
  if (op == "session_info") {
    std::uint32_t session = 0;
    if (const auto why = read_u32(req, "session", session)) {
      return json_error(id, ErrorCode::kBadRequest, *why);
    }
    SessionInfo info;
    if (const auto err = do_session_info(session, info)) {
      return json_error(id, err->code, err->message);
    }
    out += ',';
    append_session_info(out, info);
    out += '}';
    return out;
  }
  return json_error(id, ErrorCode::kUnknownType, "unknown op");
}

std::optional<Server::OpError> Server::do_open(const SessionConfig& cfg,
                                               SessionInfo& out) {
  if (shutting_down_.load()) {
    return OpError{ErrorCode::kShuttingDown, "server is draining"};
  }
  if (const auto why = validate_config(cfg, options_)) {
    return OpError{ErrorCode::kBadRequest, *why};
  }
  try {
    bool cached = false;
    const std::shared_ptr<Session> s = sessions_.open(cfg, cached);
    out = s->info(cached);
    return std::nullopt;
  } catch (const std::exception& e) {
    return OpError{ErrorCode::kInternal, e.what()};
  } catch (...) {
    return OpError{ErrorCode::kInternal, "session build failed"};
  }
}

std::optional<Server::OpError> Server::do_predict(
    std::uint32_t session, const std::vector<double>& measured,
    std::vector<double>& out) {
  if (shutting_down_.load()) {
    return OpError{ErrorCode::kShuttingDown, "server is draining"};
  }
  const std::shared_ptr<Session> s = sessions_.find(session);
  if (s == nullptr) {
    return OpError{ErrorCode::kUnknownSession, "no such session"};
  }
  if (measured.size() != s->predictor.mu_meas.size()) {
    return OpError{ErrorCode::kBadRequest,
                   "measured length does not match session slot count"};
  }
  if (!s->batcher->predict(measured, out)) {
    return OpError{ErrorCode::kInternal, "panel prediction failed"};
  }
  return std::nullopt;
}

std::optional<Server::OpError> Server::do_observe(
    std::uint32_t session, const std::vector<double>& measured,
    const std::vector<std::uint8_t>& valid, ObserveOutcome& out) {
  if (shutting_down_.load()) {
    return OpError{ErrorCode::kShuttingDown, "server is draining"};
  }
  const std::shared_ptr<Session> s = sessions_.find(session);
  if (s == nullptr) {
    return OpError{ErrorCode::kUnknownSession, "no such session"};
  }
  if (measured.size() != s->predictor.mu_meas.size()) {
    return OpError{ErrorCode::kBadRequest,
                   "measured length does not match session slot count"};
  }
  if (!valid.empty() && valid.size() != measured.size()) {
    return OpError{ErrorCode::kBadRequest,
                   "valid mask length does not match measured length"};
  }
  std::vector<char> mask(valid.begin(), valid.end());
  std::lock_guard<std::mutex> lk(s->stream_mu);
  // Same exception boundary as do_open: a contract violation or bad_alloc
  // inside the calibrator must become a kInternal reply, not unwind through
  // the reader strand (which would terminate the whole server).
  try {
    const core::DieRecord rec = s->calibrator->observe(
        s->next_die++, measured,
        mask.empty() ? std::span<const char>{}
                     : std::span<const char>(mask.data(), mask.size()));
    out.accepted = rec.accepted;
    out.gate = static_cast<std::uint8_t>(rec.gate);
    out.health = static_cast<std::uint8_t>(rec.prediction_health);
    out.drift_flagged = rec.drift_flagged;
    out.drift_score = rec.drift_score;
    out.guardband = rec.guardband;
    out.predicted.resize(rec.predicted.size());
    for (std::size_t i = 0; i < rec.predicted.size(); ++i) {
      out.predicted[i] = rec.predicted[i];
    }
    return std::nullopt;
  } catch (const std::exception& e) {
    return OpError{ErrorCode::kInternal, e.what()};
  } catch (...) {
    return OpError{ErrorCode::kInternal, "observe failed"};
  }
}

std::optional<Server::OpError> Server::do_session_info(std::uint32_t session,
                                                       SessionInfo& out) {
  const std::shared_ptr<Session> s = sessions_.find(session);
  if (s == nullptr) {
    return OpError{ErrorCode::kUnknownSession, "no such session"};
  }
  out = s->info(true);
  return std::nullopt;
}

}  // namespace repro::server
