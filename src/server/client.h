// Blocking binary-protocol client for the selection service.
//
// One Client per connection; calls are synchronous request/response (the
// server strand answers FIFO), except the send_predict / recv_predict pair,
// which pipelines: the bench keeps several predicts in flight per
// connection so concurrent clients fill the server's predict panels.
//
// Transport errors (peer gone) return false with last_error() ==
// kInternal/"connection lost"; protocol errors return false with the
// server's structured code and message.  Nothing here throws.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "util/socket.h"

namespace repro::server {

class Client {
 public:
  Client() = default;

  // Connects to the daemon's AF_UNIX socket and sends the binary preamble.
  bool connect(const std::string& path);
  // Adopts an already-connected fd (socketpair tests) and sends the
  // preamble.
  bool adopt(util::Fd fd);
  void close() {
    fd_.reset();
    reader_.reset();
    pipeline_buf_.clear();
  }

  bool open_session(const SessionConfig& cfg, SessionInfo& info);
  bool predict(std::uint32_t session, const std::vector<double>& measured,
               std::vector<double>& predicted);
  bool observe(std::uint32_t session, const std::vector<double>& measured,
               const std::vector<std::uint8_t>& valid, ObserveOutcome& out);
  bool session_info(std::uint32_t session, SessionInfo& info);
  bool metrics(std::string& json);
  bool ping();
  // Asks the server to drain and exit; true once the ack arrived.
  bool shutdown_server();

  // Pipelined predicts: queue with send_predict (each gets a fresh seq,
  // returned through `seq`), then collect each response with recv_predict.
  // Responses arrive in request order on one connection.  Queued requests
  // are buffered and written in bursts (flushed once the buffer passes a
  // socket-buffer-sized threshold, at the first recv_predict, or before
  // any synchronous call), so a long pipeline costs a handful of send
  // syscalls instead of one per request; a send failure therefore may
  // surface at the flush rather than at the send_predict that queued it.
  bool send_predict(std::uint32_t session, const std::vector<double>& measured,
                    std::uint32_t& seq);
  bool recv_predict(std::vector<double>& predicted, std::uint32_t& seq);

  ErrorCode last_error() const { return last_error_; }
  const std::string& last_error_message() const { return last_error_message_; }

 private:
  bool send_preamble();
  bool roundtrip(MsgType request, std::string_view payload, MsgType expected,
                 Frame& response);
  bool read_expected(MsgType expected, Frame& response);
  bool flush_pipeline();
  void set_transport_error();

  util::Fd fd_;
  std::unique_ptr<util::BufferedReader> reader_;
  std::string pipeline_buf_;
  std::uint32_t next_seq_ = 1;
  ErrorCode last_error_ = ErrorCode::kInternal;
  std::string last_error_message_;
};

}  // namespace repro::server
