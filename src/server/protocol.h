// Wire protocol of the selection service (src/server/server.h).
//
// A connection speaks one of two front ends, chosen by its first byte:
//
//   * Binary (the production path): the client opens with the 4-byte magic
//     "RPB1", then both directions exchange length-prefixed frames
//
//         u32 len   | byte count of everything after this field
//         u8  type  | MsgType
//         u32 seq   | client-chosen correlation id, echoed in the response
//         payload   | len - 5 bytes, layout per type
//
//     All integers are little-endian; doubles travel as their IEEE-754 bit
//     pattern (u64 LE), so NaN measurement slots (dead/dropped on a die)
//     pass through unmangled.  `seq` exists because responses may legally
//     arrive out of order: predict replies are written by whichever batch
//     gathered them.
//
//   * JSON lines (debugging): a first byte of '{' switches the connection
//     to newline-delimited JSON objects, parsed by util::json (strict).
//     Same operations, human-typeable; see DESIGN.md §13.
//
// Any other first byte is answered with a kError frame and the connection
// is dropped.  Malformed frames get structured kError responses; framing
// violations that leave the stream unparseable (oversized length, short
// header) also drop the connection — never a crash, never a hang.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/socket.h"

namespace repro::server {

inline constexpr char kBinaryMagic[4] = {'R', 'P', 'B', '1'};
// Frames larger than this are protocol abuse (the biggest legitimate frame
// is a few-thousand-path prediction, ~tens of KB).
inline constexpr std::uint32_t kMaxFrameLen = 16u * 1024u * 1024u;
// type + seq: the smallest legal `len`.
inline constexpr std::uint32_t kFrameHeaderTail = 5;

enum class MsgType : std::uint8_t {
  // client -> server
  kOpenSession = 0x01,
  kPredict = 0x02,
  kObserve = 0x03,
  kMetrics = 0x04,
  kSessionInfo = 0x05,
  kPing = 0x06,
  kShutdown = 0x07,
  // server -> client
  kSessionOpened = 0x81,
  kPredictResult = 0x82,
  kObserveResult = 0x83,
  kMetricsResult = 0x84,
  kSessionInfoResult = 0x85,
  kPong = 0x86,
  kShutdownAck = 0x87,
  kError = 0xFF,
};

enum class ErrorCode : std::uint32_t {
  kBadMagic = 1,      // connection preamble was neither "RPB1" nor '{'
  kFrameTooLarge = 2,  // len above kMaxFrameLen (connection is dropped)
  kBadFrame = 3,      // payload did not decode for the declared type
  kUnknownType = 4,   // unrecognized MsgType
  kUnknownSession = 5,
  kBadRequest = 6,    // decoded, but semantically invalid (e.g. slot count)
  kShuttingDown = 7,  // server is draining; no new work accepted
  kInternal = 8,      // session build / predict threw
};
const char* to_string(ErrorCode c);

// What a client asks a session to be.  The canonical serialization of every
// field is the session-cache key: two opens agreeing on all fields share one
// session (and all its O(n·r²) selection work).
struct SessionConfig {
  std::string benchmark = "s1423";
  double epsilon = 0.05;
  double kappa = 3.0;
  // core::SelectionStrategy underlying value: the Algorithm-1 driver the
  // session runs (0 linear, 1 bisection, 2 greedy sweep).
  std::uint8_t strategy = 1;
  std::uint32_t min_r = 1;
  // Experiment pool overrides; 0 = the scale-mode default.  Tests and the
  // bench shrink these so a session builds in well under a second.
  std::uint32_t max_target_paths = 0;
  std::uint32_t max_candidates = 0;
  std::uint32_t yield_samples = 0;

  std::string cache_key() const;
};

// kSessionOpened / kSessionInfoResult payload.
struct SessionInfo {
  std::uint32_t session = 0;
  std::uint32_t rank = 0;
  std::uint32_t n_meas = 0;  // representative (measured) path count
  std::uint32_t n_rem = 0;   // predicted path count
  double eps_r = 0.0;
  bool cached = false;  // true when the open hit the session cache
  // Target-path indices in pivot order.
  std::vector<std::int32_t> representatives;
};

// kObserveResult payload (streamed die fed to the session calibrator).
struct ObserveOutcome {
  bool accepted = false;
  std::uint8_t gate = 0;    // core::StreamGate underlying value
  std::uint8_t health = 0;  // core::PredictorHealth underlying value
  bool drift_flagged = false;
  double drift_score = 0.0;
  double guardband = 0.0;
  std::vector<double> predicted;
};

struct Frame {
  MsgType type = MsgType::kError;
  std::uint32_t seq = 0;
  std::string payload;
};

enum class FrameReadStatus {
  kOk,
  kEof,        // clean close between frames, or peer died mid-frame
  kMalformed,  // header arrived but violates the framing rules
  kTooLarge,   // declared length above kMaxFrameLen
};

// ---- primitive append helpers (little-endian) ----
void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_f64(std::string& out, double v);
void put_string(std::string& out, std::string_view s);  // u32 len + bytes
void put_f64_span(std::string& out, const std::vector<double>& v);

// Bounds-checked payload reader; every get_* returns false once the cursor
// ran out (and from then on — callers may chain and check once).
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}
  bool get_u8(std::uint8_t& v);
  bool get_u32(std::uint32_t& v);
  bool get_f64(double& v);
  bool get_string(std::string& v, std::uint32_t max_len);
  bool get_f64_vector(std::vector<double>& v, std::uint32_t max_count);
  bool get_bytes(std::string& v, std::size_t n);
  bool exhausted() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- frame IO ----
void append_frame(std::string& out, MsgType type, std::uint32_t seq,
                  std::string_view payload);
// append_frame specialised for an f64-vector payload: encodes straight into
// `out` with no intermediate payload string (the predict hot path).
void append_f64_vector_frame(std::string& out, MsgType type, std::uint32_t seq,
                             const std::vector<double>& v);
bool send_frame(int fd, MsgType type, std::uint32_t seq,
                std::string_view payload);
FrameReadStatus read_frame(util::BufferedReader& in, Frame& out);
// True when read_frame would return without blocking: a complete frame (or
// a framing violation it would reject immediately) is already buffered.
// Strands use this to batch response writes — flush accumulated output
// only before a read that could actually block.
bool has_complete_buffered_frame(const util::BufferedReader& in);

// ---- per-message payload codecs ----
std::string encode_open_session(const SessionConfig& cfg);
bool decode_open_session(std::string_view payload, SessionConfig& cfg);

std::string encode_session_info(const SessionInfo& info);
bool decode_session_info(std::string_view payload, SessionInfo& info);

// kPredict / kObserve requests: session id + one die's measurement vector
// (+ optional per-slot validity mask for observe).
std::string encode_predict(std::uint32_t session,
                           const std::vector<double>& measured);
bool decode_predict(std::string_view payload, std::uint32_t& session,
                    std::vector<double>& measured);

std::string encode_observe(std::uint32_t session,
                           const std::vector<double>& measured,
                           const std::vector<std::uint8_t>& valid);
bool decode_observe(std::string_view payload, std::uint32_t& session,
                    std::vector<double>& measured,
                    std::vector<std::uint8_t>& valid);

std::string encode_f64_vector(const std::vector<double>& v);
bool decode_f64_vector(std::string_view payload, std::vector<double>& v);

std::string encode_observe_outcome(const ObserveOutcome& o);
bool decode_observe_outcome(std::string_view payload, ObserveOutcome& o);

std::string encode_error(ErrorCode code, std::string_view message);
bool decode_error(std::string_view payload, ErrorCode& code,
                  std::string& message);

}  // namespace repro::server
