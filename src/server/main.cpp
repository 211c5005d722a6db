// selection_serverd: the selection-as-a-service daemon.
//
// Usage: selection_serverd [--max-pool-paths N] [socket-path]
//        default socket: /tmp/repro_selection.sock
//
// --max-pool-paths tightens the open_session admission ceiling (oversized
// requests get a structured kBadRequest instead of an out-of-memory build);
// the default is the protocol-level hard cap.  Any other flag is a usage
// error (exit 2).
//
// Serves the binary protocol and the JSON-lines debugging front end on one
// AF_UNIX socket (src/server/protocol.h).  SIGINT/SIGTERM, or a client
// shutdown request, drain in-flight requests and exit cleanly.  The
// readiness line on stdout ("listening on ...") is what the CI smoke job
// waits for.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "server/server.h"

namespace {

repro::server::Server* g_server = nullptr;

// request_shutdown is an atomic store plus a shutdown(2) on the listener:
// async-signal-safe.
void handle_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon must never die through std::terminate: report and exit
  // nonzero so supervisors see a failure, not an abort.
  try {
    std::string path = "/tmp/repro_selection.sock";
    repro::server::ServerOptions options;
    bool bad_usage = false;
    bool want_help = false;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        want_help = true;
      } else if (arg == "--max-pool-paths") {
        if (i + 1 >= argc) {
          bad_usage = true;
          break;
        }
        char* end = nullptr;
        const unsigned long v = std::strtoul(argv[++i], &end, 10);
        if (end == nullptr || *end != '\0' || v == 0 || v > (1ul << 20)) {
          bad_usage = true;
          break;
        }
        options.max_pool_paths = static_cast<std::uint32_t>(v);
      } else if (arg.size() > 1 && arg[0] == '-') {
        bad_usage = true;
        break;
      } else {
        positional.push_back(arg);
      }
    }
    if (positional.size() > 1) bad_usage = true;
    if (!positional.empty()) path = positional.front();
    if (bad_usage || want_help) {
      std::fprintf(stderr,
                   "usage: selection_serverd [--max-pool-paths N] "
                   "[socket-path]\n");
      return bad_usage ? 2 : 0;
    }

    repro::server::Server server(options);
    if (!server.listen(path)) {
      std::fprintf(stderr, "selection_serverd: cannot listen on %s: %s\n",
                   path.c_str(), std::strerror(errno));
      return 1;
    }
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    std::printf("selection_serverd: listening on %s\n", path.c_str());
    std::fflush(stdout);
    server.run();
    g_server = nullptr;
    std::printf("selection_serverd: drained, exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selection_serverd: fatal: %s\n", e.what());
    return 1;
  }
}
