#include "server/protocol.h"

#include <bit>
#include <cstring>

namespace repro::server {
namespace {

// Sanity caps for decoded element counts; each is far above anything the
// pipeline produces but keeps a hostile frame from requesting a huge
// allocation before the payload-length check can catch it.
constexpr std::uint32_t kMaxVectorElems = 1u << 20;
constexpr std::uint32_t kMaxStringLen = 1u << 20;

std::uint32_t load_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kBadMagic:
      return "bad-magic";
    case ErrorCode::kFrameTooLarge:
      return "frame-too-large";
    case ErrorCode::kBadFrame:
      return "bad-frame";
    case ErrorCode::kUnknownType:
      return "unknown-type";
    case ErrorCode::kUnknownSession:
      return "unknown-session";
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown-error";
}

std::string SessionConfig::cache_key() const {
  // Field order is fixed; the key doubles as the binary open payload, so two
  // configs share a session exactly when their open frames are identical.
  return encode_open_session(*this);
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(out, static_cast<std::uint32_t>(bits & 0xFFFFFFFFu));
  put_u32(out, static_cast<std::uint32_t>(bits >> 32));
}

void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_f64_span(std::string& out, const std::vector<double>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  if constexpr (std::endian::native == std::endian::little) {
    // The wire format IS the little-endian in-memory layout: bulk-copy the
    // whole span (the per-element path costs ~8 push_backs per double,
    // which dominated the predict hot path).
    out.append(reinterpret_cast<const char*>(v.data()),
               v.size() * sizeof(double));
  } else {
    for (const double x : v) put_f64(out, x);
  }
}

bool PayloadReader::get_u8(std::uint8_t& v) {
  if (!ok_ || data_.size() - pos_ < 1) {
    ok_ = false;
    return false;
  }
  v = static_cast<std::uint8_t>(data_[pos_]);
  pos_ += 1;
  return true;
}

bool PayloadReader::get_u32(std::uint32_t& v) {
  if (!ok_ || data_.size() - pos_ < 4) {
    ok_ = false;
    return false;
  }
  v = load_u32(reinterpret_cast<const unsigned char*>(data_.data() + pos_));
  pos_ += 4;
  return true;
}

bool PayloadReader::get_f64(double& v) {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  if (!get_u32(lo) || !get_u32(hi)) return false;
  const std::uint64_t bits =
      static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
  std::memcpy(&v, &bits, sizeof(v));
  return true;
}

bool PayloadReader::get_string(std::string& v, std::uint32_t max_len) {
  std::uint32_t len = 0;
  if (!get_u32(len)) return false;
  if (len > max_len || data_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  v.assign(data_.substr(pos_, len));
  pos_ += len;
  return true;
}

bool PayloadReader::get_f64_vector(std::vector<double>& v,
                                   std::uint32_t max_count) {
  std::uint32_t count = 0;
  if (!get_u32(count)) return false;
  if (count > max_count || data_.size() - pos_ < 8u * count) {
    ok_ = false;
    return false;
  }
  v.resize(count);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(v.data(), data_.data() + pos_, 8u * count);
    pos_ += 8u * count;
  } else {
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!get_f64(v[i])) return false;
    }
  }
  return true;
}

void append_frame(std::string& out, MsgType type, std::uint32_t seq,
                  std::string_view payload) {
  put_u32(out, static_cast<std::uint32_t>(kFrameHeaderTail + payload.size()));
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32(out, seq);
  out.append(payload);
}

void append_f64_vector_frame(std::string& out, MsgType type, std::uint32_t seq,
                             const std::vector<double>& v) {
  const std::size_t payload = 4u + 8u * v.size();
  put_u32(out, static_cast<std::uint32_t>(kFrameHeaderTail + payload));
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u32(out, seq);
  put_f64_span(out, v);
}

bool send_frame(int fd, MsgType type, std::uint32_t seq,
                std::string_view payload) {
  std::string wire;
  wire.reserve(4 + kFrameHeaderTail + payload.size());
  append_frame(wire, type, seq, payload);
  return util::send_all(fd, wire.data(), wire.size());
}

FrameReadStatus read_frame(util::BufferedReader& in, Frame& out) {
  unsigned char header[4];
  if (!in.read_exact(header, sizeof(header))) return FrameReadStatus::kEof;
  const std::uint32_t len = load_u32(header);
  if (len > kMaxFrameLen) return FrameReadStatus::kTooLarge;
  if (len < kFrameHeaderTail) return FrameReadStatus::kMalformed;
  unsigned char tail[kFrameHeaderTail];
  if (!in.read_exact(tail, sizeof(tail))) return FrameReadStatus::kEof;
  out.type = static_cast<MsgType>(tail[0]);
  out.seq = load_u32(tail + 1);
  out.payload.resize(len - kFrameHeaderTail);
  if (!out.payload.empty() &&
      !in.read_exact(out.payload.data(), out.payload.size())) {
    return FrameReadStatus::kEof;
  }
  return FrameReadStatus::kOk;
}

bool has_complete_buffered_frame(const util::BufferedReader& in) {
  unsigned char header[4];
  if (!in.peek_buffered(header, sizeof(header))) return false;
  const std::uint32_t len = load_u32(header);
  // A violating length makes read_frame fail without reading the body, so
  // it too is "ready" — the caller must not block before handling it.
  if (len > kMaxFrameLen || len < kFrameHeaderTail) return true;
  return in.buffered() >= sizeof(header) + len;
}

std::string encode_open_session(const SessionConfig& cfg) {
  std::string p;
  put_string(p, cfg.benchmark);
  put_f64(p, cfg.epsilon);
  put_f64(p, cfg.kappa);
  put_u8(p, cfg.strategy);
  put_u32(p, cfg.min_r);
  put_u32(p, cfg.max_target_paths);
  put_u32(p, cfg.max_candidates);
  put_u32(p, cfg.yield_samples);
  return p;
}

bool decode_open_session(std::string_view payload, SessionConfig& cfg) {
  PayloadReader r(payload);
  r.get_string(cfg.benchmark, 256);
  r.get_f64(cfg.epsilon);
  r.get_f64(cfg.kappa);
  r.get_u8(cfg.strategy);
  r.get_u32(cfg.min_r);
  r.get_u32(cfg.max_target_paths);
  r.get_u32(cfg.max_candidates);
  r.get_u32(cfg.yield_samples);
  return r.exhausted();
}

std::string encode_session_info(const SessionInfo& info) {
  std::string p;
  put_u32(p, info.session);
  put_u32(p, info.rank);
  put_u32(p, info.n_meas);
  put_u32(p, info.n_rem);
  put_f64(p, info.eps_r);
  put_u8(p, info.cached ? 1 : 0);
  put_u32(p, static_cast<std::uint32_t>(info.representatives.size()));
  for (const std::int32_t idx : info.representatives) {
    put_u32(p, static_cast<std::uint32_t>(idx));
  }
  return p;
}

bool decode_session_info(std::string_view payload, SessionInfo& info) {
  PayloadReader r(payload);
  r.get_u32(info.session);
  r.get_u32(info.rank);
  r.get_u32(info.n_meas);
  r.get_u32(info.n_rem);
  r.get_f64(info.eps_r);
  std::uint8_t cached = 0;
  r.get_u8(cached);
  info.cached = cached != 0;
  std::uint32_t count = 0;
  if (!r.get_u32(count) || count > kMaxVectorElems) return false;
  info.representatives.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t v = 0;
    if (!r.get_u32(v)) return false;
    info.representatives[i] = static_cast<std::int32_t>(v);
  }
  return r.exhausted();
}

std::string encode_predict(std::uint32_t session,
                           const std::vector<double>& measured) {
  std::string p;
  put_u32(p, session);
  put_f64_span(p, measured);
  return p;
}

bool decode_predict(std::string_view payload, std::uint32_t& session,
                    std::vector<double>& measured) {
  PayloadReader r(payload);
  r.get_u32(session);
  r.get_f64_vector(measured, kMaxVectorElems);
  return r.exhausted();
}

std::string encode_observe(std::uint32_t session,
                           const std::vector<double>& measured,
                           const std::vector<std::uint8_t>& valid) {
  std::string p;
  put_u32(p, session);
  put_f64_span(p, measured);
  put_u32(p, static_cast<std::uint32_t>(valid.size()));
  for (const std::uint8_t v : valid) put_u8(p, v);
  return p;
}

bool decode_observe(std::string_view payload, std::uint32_t& session,
                    std::vector<double>& measured,
                    std::vector<std::uint8_t>& valid) {
  PayloadReader r(payload);
  r.get_u32(session);
  r.get_f64_vector(measured, kMaxVectorElems);
  std::uint32_t count = 0;
  if (!r.get_u32(count) || count > kMaxVectorElems) return false;
  valid.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!r.get_u8(valid[i])) return false;
  }
  return r.exhausted();
}

std::string encode_f64_vector(const std::vector<double>& v) {
  std::string p;
  put_f64_span(p, v);
  return p;
}

bool decode_f64_vector(std::string_view payload, std::vector<double>& v) {
  PayloadReader r(payload);
  r.get_f64_vector(v, kMaxVectorElems);
  return r.exhausted();
}

std::string encode_observe_outcome(const ObserveOutcome& o) {
  std::string p;
  put_u8(p, o.accepted ? 1 : 0);
  put_u8(p, o.gate);
  put_u8(p, o.health);
  put_u8(p, o.drift_flagged ? 1 : 0);
  put_f64(p, o.drift_score);
  put_f64(p, o.guardband);
  put_f64_span(p, o.predicted);
  return p;
}

bool decode_observe_outcome(std::string_view payload, ObserveOutcome& o) {
  PayloadReader r(payload);
  std::uint8_t accepted = 0;
  std::uint8_t drift = 0;
  r.get_u8(accepted);
  r.get_u8(o.gate);
  r.get_u8(o.health);
  r.get_u8(drift);
  r.get_f64(o.drift_score);
  r.get_f64(o.guardband);
  r.get_f64_vector(o.predicted, kMaxVectorElems);
  o.accepted = accepted != 0;
  o.drift_flagged = drift != 0;
  return r.exhausted();
}

std::string encode_error(ErrorCode code, std::string_view message) {
  std::string p;
  put_u32(p, static_cast<std::uint32_t>(code));
  put_string(p, message);
  return p;
}

bool decode_error(std::string_view payload, ErrorCode& code,
                  std::string& message) {
  PayloadReader r(payload);
  std::uint32_t c = 0;
  r.get_u32(c);
  r.get_string(message, kMaxStringLen);
  code = static_cast<ErrorCode>(c);
  return r.exhausted();
}

}  // namespace repro::server
