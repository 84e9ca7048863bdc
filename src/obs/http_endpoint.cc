#include "obs/http_endpoint.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace relcomp {
namespace obs {

namespace {

constexpr const char* kPromContentType =
    "text/plain; version=0.0.4; charset=utf-8";
constexpr const char* kJsonContentType = "application/json";
constexpr const char* kTextContentType = "text/plain; charset=utf-8";

/// One routable path. `surface` names the ObsSurfaces callback that
/// renders the body; it is null for the endpoint's own routes (liveness,
/// readiness and the index), which Serve answers itself.
struct Route {
  const char* path;
  const char* content_type;
  std::function<std::string()> ObsSurfaces::*surface;
  const char* description;
};

/// Every routable path, in index order. Doubles as the bounded label
/// vocabulary for the endpoint's own metrics: an unknown path records as
/// "other", so a scanner probing random URLs cannot grow the label space.
const Route kRoutes[] = {
    {"/metrics", kPromContentType, &ObsSurfaces::metrics_prometheus,
     "Prometheus text exposition (every registered family)"},
    {"/metrics.json", kJsonContentType, &ObsSurfaces::metrics_json,
     "the same dump as JSON (histograms carry p50/p95/p99)"},
    {"/traces", kJsonContentType, &ObsSurfaces::traces_json,
     "finished request traces as Chrome trace-event JSON"},
    {"/slow", kTextContentType, &ObsSurfaces::slow_text,
     "worst end-to-end decisions, with search profile and trace"},
    {"/report", kTextContentType, &ObsSurfaces::report_text,
     "the ObsReport dashboard (vitals, tenants, active evaluations)"},
    {"/healthz", kTextContentType, nullptr,
     "liveness (200 while the endpoint serves)"},
    {"/readyz", kTextContentType, nullptr,
     "readiness (200 once settings are registered and the pool is live)"},
    {"/", kTextContentType, nullptr, "this index"},
};

const Route* FindRoute(const std::string& path) {
  for (const Route& route : kRoutes) {
    if (path == route.path) return &route;
  }
  return nullptr;
}

/// The `/` body: one line per route, rendered once from kRoutes.
const std::string& IndexBody() {
  static const std::string body = [] {
    std::string out = "relcomp live observability endpoint\n\n";
    for (const Route& route : kRoutes) {
      std::string path = route.path;
      path.resize(std::max<size_t>(path.size() + 1, 16), ' ');
      out += "  " + path + route.description + "\n";
    }
    return out;
  }();
  return body;
}

net::HttpResponse TextResponse(int code, const std::string& body,
                               const char* content_type) {
  net::HttpResponse response;
  response.code = code;
  response.content_type = content_type;
  response.body = body;
  return response;
}

/// Answers a GET or HEAD of `route`; null is an unknown path (404). A
/// surface that was never wired renders as 503.
net::HttpResponse Serve(const Route* route, const ObsSurfaces& surfaces) {
  if (route == nullptr) {
    return TextResponse(404, "404 " +
                                 std::string(net::HttpStatusReason(404)) +
                                 "\n\n" + IndexBody(),
                        kTextContentType);
  }
  if (route->surface != nullptr) {
    const std::function<std::string()>& surface = surfaces.*route->surface;
    if (surface == nullptr) {
      return TextResponse(503, "503 surface not wired\n", kTextContentType);
    }
    return TextResponse(200, surface(), route->content_type);
  }
  const std::string path = route->path;
  if (path == "/readyz") {
    const bool ready = surfaces.ready == nullptr || surfaces.ready();
    return ready ? TextResponse(200, "ready\n", kTextContentType)
                 : TextResponse(503, "not ready\n", kTextContentType);
  }
  return TextResponse(200, path == "/healthz" ? "ok\n" : IndexBody(),
                      route->content_type);
}

}  // namespace

HttpEndpoint::HttpEndpoint(ObsSurfaces surfaces, MetricsRegistry* registry)
    : surfaces_(std::move(surfaces)), registry_(registry) {}

HttpEndpoint::~HttpEndpoint() { Stop(); }

Status HttpEndpoint::Start(const ObsHttpOptions& options) {
  if (registry_ != nullptr) {
    // Pre-create the endpoint's instruments for every routable path so
    // the very first scrape already lists all three families — a
    // monitoring system should never have to request twice to learn
    // what exists.
    inflight_ = registry_->GetGauge(kMetricHttpInflightRequests);
    for (const Route& route : kRoutes) {
      registry_->GetHistogram(kMetricHttpHandlerLatencyMicros,
                              {{"path", route.path}});
      registry_->GetCounter(kMetricHttpRequestsTotal,
                            {{"code", "200"}, {"path", route.path}});
    }
  }
  net::HttpServerOptions server_options;
  server_options.host = options.host;
  server_options.port = options.port;
  server_options.worker_threads = options.worker_threads;
  server_options.max_head_bytes = options.max_head_bytes;
  return server_.Start(server_options, [this](const net::HttpRequest& request) {
    return Handle(request);
  });
}

void HttpEndpoint::Stop() { server_.Stop(); }

net::HttpResponse HttpEndpoint::Handle(const net::HttpRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  if (inflight_ != nullptr) inflight_->Add(1);

  const Route* route = FindRoute(request.Path());
  net::HttpResponse response;
  if (request.method != "GET" && request.method != "HEAD") {
    response = TextResponse(405, "405 " +
                                     std::string(net::HttpStatusReason(405)) +
                                     ": use GET or HEAD\n",
                            kTextContentType);
    response.extra_headers.emplace_back("Allow", "GET, HEAD");
  } else {
    response = Serve(route, surfaces_);
  }

  if (inflight_ != nullptr) inflight_->Add(-1);
  if (registry_ != nullptr) {
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    // A refused method is still attributed to the path it aimed at.
    const char* path_label = route != nullptr ? route->path : "other";
    Histogram* latency = registry_->GetHistogram(
        kMetricHttpHandlerLatencyMicros, {{"path", path_label}});
    if (latency != nullptr) latency->Record(static_cast<uint64_t>(micros));
    Counter* requests = registry_->GetCounter(
        kMetricHttpRequestsTotal,
        {{"code", std::to_string(response.code)}, {"path", path_label}});
    if (requests != nullptr) requests->Inc();
  }
  return response;
}

}  // namespace obs
}  // namespace relcomp
