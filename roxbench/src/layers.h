// Per-layer accounting of the traced run. The benchmark times its own
// calls into each module and folds in the span trees the engine
// returns at TraceLevel::kSpans (query > cache_lookup / parse /
// compile / execute > rox > phase1 / edge / assembly, gather,
// plan_tail). A layer's self time is its span's duration minus the
// durations of its child spans. The benchmark can add layers it times
// itself (the server's render and request parsing). What the measured
// latency holds beyond the engine's root spans and those layers is
// "unattributed": it is shown, not counted as accounted for.

#ifndef ROXBENCH_LAYERS_H_
#define ROXBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util.h"

namespace roxbench {

// One span of an engine trace, flattened.
struct SpanRec {
  std::string name;
  int parent = -1;
  double dur_ns = 0;
  std::string kernel;  // edge spans only
  double observed = 0;  // edge spans only: |R_e|
};

std::vector<SpanRec> SpansFromTrace(const rox::obs::QueryTrace& trace);
// The "trace" member of a server response (QueryTrace::ToJson).
bool SpansFromJson(const Json& trace, std::vector<SpanRec>* out);

class LayerProfile {
 public:
  // One traced operation: its engine spans and the latency the client
  // measured around the call.
  void AddOperation(const std::vector<SpanRec>& spans, double client_ns);
  // A layer the benchmark timed apart from the traced operations, as a
  // mean per operation; it is taken out of the unattributed time.
  void AddMeasured(const std::string& layer, double us_per_op);

  // Mean self time of `layer` per traced operation, in microseconds.
  double MeanSelfUs(const std::string& layer) const;
  // Mean (inclusive) span duration per traced operation, in ms.
  double MeanSpanMs(const std::string& name) const;
  // Edge-span nanoseconds per observed result row of one kernel; 0 when
  // the kernel never ran.
  double KernelNsPerRow(const std::string& kernel) const;

  // Mean per operation of the summed self times of every attributed
  // layer (engine spans and measured layers), and of what is left.
  double MeanAttributedUs() const;
  double MeanUnattributedUs() const;

  // The self-time table and its check: the attributed sum must lie
  // within [1 - max_unattributed_pct, 1 + over_pct] of the untraced
  // mean latency — too little means time no layer accounts for, too
  // much double-counted spans or trace overhead.
  std::string Render(const std::string& title, double untraced_mean_us,
                     double max_unattributed_pct, double over_pct,
                     bool* within) const;

 private:
  std::map<std::string, double> self_ns_;
  std::map<std::string, double> measured_us_;
  double client_ns_ = 0;
  std::map<std::string, double> span_ns_;
  std::map<std::string, std::pair<double, double>> kernel_ns_rows_;
  uint64_t ops_ = 0;
};

}  // namespace roxbench

#endif  // ROXBENCH_LAYERS_H_
