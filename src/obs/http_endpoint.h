// The live observability endpoint: routes the service's existing
// dump-to-string surfaces (metrics, traces, slow log, obs report,
// health) over the net/ HTTP server, and instruments itself through the
// same metric registry it exposes. One route table in http_endpoint.cc
// names every path; the dispatch, the `/` index and the bounded `path`
// label vocabulary of the endpoint's own metrics all read it.
//
// Layering: obs/ cannot see service/ (service depends on obs), so the
// endpoint takes the surfaces as a struct of callbacks and
// CompletenessService::ServeObs binds them — the endpoint stays
// reusable for any process that can render the same strings.
//
// Scrape cost stays off the decision hot path by construction: a GET
// runs on an endpoint worker thread and takes exactly the locks the
// underlying dump call always took (registry/shard snapshot for
// /metrics, the trace-ring mutex for /traces, ...), never a new one.
// bench/bench_http_scrape.cc holds the A/B evidence.
#ifndef RELCOMP_OBS_HTTP_ENDPOINT_H_
#define RELCOMP_OBS_HTTP_ENDPOINT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "net/http.h"
#include "net/http_server.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace relcomp {
namespace obs {

struct ObsHttpOptions {
  /// Numeric IPv4 listen address. The default stays loopback-only: the
  /// endpoint exposes operational internals, opting into 0.0.0.0 is a
  /// deliberate act.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port().
  uint16_t port = 0;
  /// Concurrent scrape workers. Two is plenty for a scraper plus a
  /// human; this bounds how many dump renders can run at once.
  size_t worker_threads = 2;
  /// Request head cap (431 beyond it).
  size_t max_head_bytes = 16 * 1024;
};

/// The service surfaces the endpoint exposes. Each callback must be
/// thread-safe and may be invoked concurrently; a default-constructed
/// (empty) callback renders that endpoint as 503.
struct ObsSurfaces {
  std::function<std::string()> metrics_prometheus;  ///< GET /metrics
  std::function<std::string()> metrics_json;        ///< GET /metrics.json
  std::function<std::string()> traces_json;         ///< GET /traces
  std::function<std::string()> slow_text;           ///< GET /slow
  std::function<std::string()> report_text;         ///< GET /report
  std::function<bool()> ready;                      ///< GET /readyz
};

class HttpEndpoint {
 public:
  /// `registry` receives the endpoint's own instruments (request
  /// counter, in-flight gauge, handler latency); null = uninstrumented.
  HttpEndpoint(ObsSurfaces surfaces, MetricsRegistry* registry);
  ~HttpEndpoint();
  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Binds and starts serving. One-shot, like the underlying server.
  Status Start(const ObsHttpOptions& options);

  /// Graceful shutdown; idempotent. Runs at destruction.
  void Stop();

  /// The bound port (resolves port 0), valid after a successful Start.
  uint16_t port() const { return server_.port(); }

  /// The routing core, exposed so tests can drive it without sockets.
  /// Thread-safe; this is exactly what the server workers invoke.
  net::HttpResponse Handle(const net::HttpRequest& request);

 private:
  ObsSurfaces surfaces_;
  MetricsRegistry* registry_;
  Gauge* inflight_ = nullptr;
  net::HttpServer server_;
};

}  // namespace obs
}  // namespace relcomp

#endif  // RELCOMP_OBS_HTTP_ENDPOINT_H_
