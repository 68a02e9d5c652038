// Concurrent local transport for --serve: a unix-domain stream socket
// instead of stdin/stdout, so long-lived tools can attach and detach
// without owning the server's pipes.
//
// Connections are served *concurrently*: a single poll-driven thread owns
// every fd (listener, connections, a wake pipe) and never blocks on a
// scenario run — all queries go through the shared worker pool in
// serve/core.hpp. Each connection gets its own sequence-ordered writer, so
// responses come back in request order per connection while the caches,
// counters, and workers are shared by all of them (a reconnecting client
// keeps its warm caches, and two clients warm each other).
//
// Slow or vanished clients cannot wedge the server: reads are bounded
// (--serve-max-line-bytes; an over-long line is answered with one error and
// the connection is closed), writes are buffered per connection and flushed
// nonblockingly by the poll thread, and a connection whose outbound buffer
// grows past a hard cap is dropped. In-flight queries for a dropped
// connection finish normally and their responses are discarded.
//
// Shutdown drains: a "shutdown" control query (after its barrier) or a
// SIGTERM stops accepting, unlinks the socket path, finishes every admitted
// query, flushes every connection, and reports the final counters in the
// result.
//
// POSIX-only (AF_UNIX); on other platforms serve_socket reports an error.
#pragma once

#include <string>

#include "gpucomm/serve/server.hpp"

namespace gpucomm::serve {

/// Listen on `path` (any stale socket file is replaced) and serve
/// connections concurrently until a shutdown control query or SIGTERM.
/// Fills `result` with the final tally (answered counts every response line
/// across all connections). Returns false with a one-line `error` when the
/// socket cannot be created or bound, or the platform has no AF_UNIX
/// support.
bool serve_socket(const std::string& path, const ServeOptions& options,
                  ServeResult& result, std::string& error);

}  // namespace gpucomm::serve
