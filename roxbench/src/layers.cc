#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace roxbench {

std::vector<SpanRec> SpansFromTrace(const rox::obs::QueryTrace& trace) {
  std::vector<SpanRec> out;
  out.reserve(trace.spans().size());
  for (const rox::obs::TraceSpan& s : trace.spans()) {
    SpanRec r;
    r.name = s.name;
    r.parent = s.parent;
    r.dur_ns = static_cast<double>(std::max<int64_t>(s.duration_ns, 0));
    out.push_back(std::move(r));
  }
  for (const rox::obs::EdgeTrace& e : trace.edges()) {
    if (e.span < out.size()) {
      out[e.span].kernel = e.kernel;
      out[e.span].observed = std::max(e.observed, 0.0);
    }
  }
  return out;
}

bool SpansFromJson(const Json& trace, std::vector<SpanRec>* out) {
  out->clear();
  const Json* spans = trace.Find("spans");
  if (spans == nullptr || spans->type != Json::Type::kArray) return false;
  for (const Json& s : spans->items) {
    const Json* name = s.Find("name");
    const Json* parent = s.Find("parent");
    const Json* dur = s.Find("dur_ns");
    if (name == nullptr || parent == nullptr || dur == nullptr) return false;
    SpanRec r;
    r.name = name->str;
    r.parent = static_cast<int>(parent->number);
    r.dur_ns = std::max(dur->number, 0.0);
    out->push_back(std::move(r));
  }
  if (const Json* edges = trace.Find("edges")) {
    for (const Json& e : edges->items) {
      const Json* span = e.Find("span");
      const Json* kernel = e.Find("kernel");
      const Json* obs = e.Find("obs");
      if (span == nullptr || kernel == nullptr || obs == nullptr) continue;
      size_t idx = static_cast<size_t>(span->number);
      if (idx < out->size()) {
        (*out)[idx].kernel = kernel->str;
        (*out)[idx].observed = std::max(obs->number, 0.0);
      }
    }
  }
  return true;
}

namespace {

constexpr char kUnattributed[] = "unattributed";

std::string LayerName(const SpanRec& s) {
  if (s.name == "edge") return "edge." + (s.kernel.empty() ? "?" : s.kernel);
  return s.name;
}

// The module a layer belongs to (for the table).
const char* ModuleOf(const std::string& layer) {
  if (layer == kUnattributed) return "-";
  if (layer.rfind("server.", 0) == 0) return "server";
  if (layer == "query" || layer == "cache_lookup" || layer == "admission") {
    return "engine";
  }
  if (layer == "parse" || layer == "compile" || layer == "execute" ||
      layer == "gather" || layer == "plan_tail") {
    return "xq";
  }
  if (layer.rfind("edge.", 0) == 0) return "exec";
  return "rox";
}

}  // namespace

void LayerProfile::AddOperation(const std::vector<SpanRec>& spans,
                                double client_ns) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const SpanRec& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      child_ns[static_cast<size_t>(s.parent)] += s.dur_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::string layer = LayerName(s);
    self_ns_[layer] += std::max(s.dur_ns - child_ns[i], 0.0);
    span_ns_[s.name] += s.dur_ns;
    if (s.name == "edge") {
      auto& [ns, rows] = kernel_ns_rows_[s.kernel];
      ns += s.dur_ns;
      rows += s.observed;
    }
  }
  client_ns_ += client_ns;
  ++ops_;
}

void LayerProfile::AddMeasured(const std::string& layer, double us_per_op) {
  measured_us_[layer] += us_per_op;
}

double LayerProfile::MeanSelfUs(const std::string& layer) const {
  auto it = self_ns_.find(layer);
  if (it == self_ns_.end() || ops_ == 0) return 0;
  return it->second / 1e3 / static_cast<double>(ops_);
}

double LayerProfile::MeanSpanMs(const std::string& name) const {
  auto it = span_ns_.find(name);
  if (it == span_ns_.end() || ops_ == 0) return 0;
  return it->second / 1e6 / static_cast<double>(ops_);
}

double LayerProfile::KernelNsPerRow(const std::string& kernel) const {
  auto it = kernel_ns_rows_.find(kernel);
  if (it == kernel_ns_rows_.end() || it->second.second <= 0) return 0;
  return it->second.first / it->second.second;
}

double LayerProfile::MeanAttributedUs() const {
  if (ops_ == 0) return 0;
  double sum_ns = 0;
  for (const auto& [layer, ns] : self_ns_) sum_ns += ns;
  double sum_us = sum_ns / 1e3 / static_cast<double>(ops_);
  for (const auto& [layer, us] : measured_us_) sum_us += us;
  return sum_us;
}

double LayerProfile::MeanUnattributedUs() const {
  if (ops_ == 0) return 0;
  return client_ns_ / 1e3 / static_cast<double>(ops_) - MeanAttributedUs();
}

std::string LayerProfile::Render(const std::string& title,
                                 double untraced_mean_us,
                                 double max_unattributed_pct, double over_pct,
                                 bool* within) const {
  const double n = static_cast<double>(std::max<uint64_t>(ops_, 1));
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [layer, ns] : self_ns_) {
    rows.emplace_back(ns / 1e3 / n, layer);
  }
  for (const auto& [layer, us] : measured_us_) rows.emplace_back(us, layer);
  rows.emplace_back(MeanUnattributedUs(), kUnattributed);
  std::sort(rows.rbegin(), rows.rend());
  const double total_us = client_ns_ / 1e3 / n;
  const double sum_us = MeanAttributedUs();
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: per-layer self time over %llu traced operations\n"
                "  %-22s %-7s %14s %7s\n",
                title.c_str(), static_cast<unsigned long long>(ops_), "layer",
                "module", "self us/op", "share");
  out += buf;
  for (const auto& [us, layer] : rows) {
    std::snprintf(buf, sizeof(buf), "  %-22s %-7s %14.2f %6.1f%%\n",
                  layer.c_str(), ModuleOf(layer), us,
                  total_us > 0 ? 100.0 * us / total_us : 0.0);
    out += buf;
  }
  const double diff_pct =
      untraced_mean_us > 0 ? 100.0 * (sum_us / untraced_mean_us - 1.0)
                           : -100.0;
  *within = diff_pct >= -max_unattributed_pct && diff_pct <= over_pct;
  std::snprintf(buf, sizeof(buf),
                "  attributed %.2f us/op vs untraced latency %.2f us/op: "
                "%+.1f%% (allowed -%.0f%% to +%.0f%%) %s\n",
                sum_us, untraced_mean_us, diff_pct, max_unattributed_pct,
                over_pct, *within ? "OK" : "OUTSIDE");
  out += buf;
  return out;
}

}  // namespace roxbench
