// Selection-as-a-service daemon: the calibrated-predictor pipeline behind a
// socket.  See DESIGN.md §13 and src/server/protocol.h for the wire format.
//
// Threading model:
//   * one dedicated reader thread per connection, processing that
//     connection's requests strictly FIFO (a strand) — responses on a
//     connection are written only by its own thread, so no write lock;
//   * the compute hot path rides the shared util::ThreadPool underneath:
//     session builds and panel predictions call parallel_for internally.
//     Connection strands are deliberately NOT pool tasks — pool workers are
//     flagged in-parallel-region for their lifetime (their parallel_fors
//     would serialize) and a strand blocks in the predict batcher, which
//     must never eat a pool slot;
//   * concurrent predicts against one session gather in the session's
//     PredictBatcher and are answered through core::predict_panel
//     (bit-identical to serial, see that contract);
//   * observes serialize per session (the calibrator recursion is
//     order-dependent by design).
//
// Shutdown: request_shutdown() (any thread, or a kShutdown request) stops
// the accept loop and fails new sessions/requests with kShuttingDown;
// in-flight requests complete and their responses are flushed before the
// connection threads are joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "server/session.h"
#include "util/socket.h"

namespace repro::server {

struct ServerOptions {
  int backlog = 16;
  // Admission ceiling for open_session's pool-size overrides
  // (max_target_paths / max_candidates).  Requests beyond it are rejected
  // with a structured kBadRequest before any pool is built — the operator's
  // OOM guard, tightenable per deployment (selection_serverd
  // --max-pool-paths) and additionally clamped to the protocol-level hard
  // cap (1 << 20).
  std::uint32_t max_pool_paths = 1u << 20;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();  // stop()

  // Binds and listens on an AF_UNIX socket (a stale socket file is
  // replaced).  False on failure (errno describes it).
  bool listen(const std::string& path);

  // Accept loop; returns after request_shutdown() (or listener failure),
  // with every connection drained and joined.
  void run();

  // Adopts an already-connected peer (tests use socketpair); spawns its
  // strand.  A server that is shutting down closes the fd instead.
  void serve_fd(util::Fd fd);

  // Stops accepting and fails new work with kShuttingDown.  Returns
  // immediately; safe from any thread, including connection strands.
  void request_shutdown();

  // request_shutdown() plus drain: blocks until every strand exited.  Not
  // callable from a strand (it would join itself); run() does this on exit,
  // tests call it directly when driving serve_fd without run().
  void stop();

  bool shutting_down() const { return shutting_down_.load(); }
  SessionCache& sessions() { return sessions_; }
  const std::string& socket_path() const { return path_; }

 private:
  struct Conn {
    util::Fd fd;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  struct OpError {
    ErrorCode code = ErrorCode::kInternal;
    std::string message;
  };

  void handle_connection(Conn* conn);
  void serve_binary(Conn* conn, util::BufferedReader& in);
  // Appends the response frame(s) for one request to `out`; serve_binary
  // flushes the accumulated buffer only before a read that could block, so
  // a pipelined burst costs one send per burst instead of one per request.
  void dispatch_binary(const Frame& frame, std::string& out);
  // `frame` starts a predict: sweeps the already-buffered pipeline tail of
  // same-session predicts into one batcher block (one wait, one panel
  // contribution).  On return with `have_trailing`, `frame` holds an
  // already-read frame that did not join the run and must be dispatched
  // next.  Returns the framing status that ended the read-ahead — anything
  // but kOk means the connection must close after the run's responses.
  FrameReadStatus gather_predict_run(Frame& frame, util::BufferedReader& in,
                                     std::string& out, bool& have_trailing);
  void serve_json(Conn* conn, util::BufferedReader& in);
  std::string dispatch_json(const std::string& line);

  // Shared operation cores; both front ends call these.
  std::optional<OpError> do_open(const SessionConfig& cfg, SessionInfo& out);
  std::optional<OpError> do_predict(std::uint32_t session,
                                    const std::vector<double>& measured,
                                    std::vector<double>& out);
  std::optional<OpError> do_observe(std::uint32_t session,
                                    const std::vector<double>& measured,
                                    const std::vector<std::uint8_t>& valid,
                                    ObserveOutcome& out);
  std::optional<OpError> do_session_info(std::uint32_t session,
                                         SessionInfo& out);

  void reap_finished();
  void drain();

  ServerOptions options_;
  util::Fd listener_;
  std::string path_;
  std::atomic<bool> shutting_down_{false};
  SessionCache sessions_;
  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace repro::server
