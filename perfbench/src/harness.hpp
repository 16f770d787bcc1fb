// Shared pieces of the serving benchmark (see ../NOTES.md): options, the
// seeded request sequence, closed-loop bookkeeping, the span recorder, the
// idle pollers, the committed fixtures and the run report every workload
// fills.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "models/multiexit.hpp"
#include "runtime/elastic_engine.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny request counts, two rounds of one pass, every verification on.
  bool smoke = false;
  /// Repository checkout the fixtures and artifacts are read from.
  std::string root = ".";
};

/// Wall clock of the benchmark process, ms since its first call.
[[nodiscard]] double now_ms();

/// Median / p-th percentile (linear interpolation); 0 for an empty input.
[[nodiscard]] double median(std::vector<double> xs);
[[nodiscard]] double pct(std::vector<double> xs, double p);
[[nodiscard]] double mean(const std::vector<double>& xs);

// ---------------------------------------------------------------- requests

/// One request of a workload: an index into the workload's input pool plus
/// its forced-exit budget.
struct Request {
  std::uint32_t item = 0;
  double deadline_ms = 0.0;
};

/// The request sequence of one pass: every pool item appears once in each
/// of `strata` equal-probability strata of the uniform exit-time law on
/// [lo_ms, hi_ms], at a fixed point inside the stratum. The seed only sets
/// the order, so the multiset of (item, budget) pairs, and with it
/// `accuracy`, is the same for every seed.
[[nodiscard]] std::vector<Request> make_sequence(std::size_t items,
                                                 std::size_t strata,
                                                 double lo_ms, double hi_ms,
                                                 std::uint64_t seed);

/// Client-side record of one measured request.
struct Sample {
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool answered = false;
  /// Server-side key of the request (task id, or the deadline's bits over
  /// TCP) that runner spans are recorded under; see join_spans.
  std::uint64_t key = 0;
  einet::runtime::InferenceOutcome outcome;
};

/// Outcome fields the bit-identity contracts compare (planner_ms, a wall
/// time, is excluded).
[[nodiscard]] bool same_outcome(const einet::runtime::InferenceOutcome& a,
                                const einet::runtime::InferenceOutcome& b);

// ------------------------------------------------------------------ spans

/// Span names, one per layer boundary the benchmark times from outside.
enum class SpanName : std::uint8_t {
  kRequest,  // client-observed request (root of every request's tree)
  kSubmit,   // EdgeServer::submit_live call
  kSend,     // EdgeClient::send call
  kRuntime,  // runner span: run_batched / ElasticEngine::run / resume
};

struct Span {
  SpanName name = SpanName::kRequest;
  /// Request the span belongs to; every span of one request shares it.
  std::uint64_t request = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  /// kRuntime only: members of the micro-batch the span ran, set on the
  /// span of the batch's first member and 0 on the others (1 when unbatched).
  std::uint32_t members = 1;
};

/// Switch the recorder on or off; recording is a no-op while off.
void set_tracing(bool on);
[[nodiscard]] bool tracing();
/// Append one span to the calling thread's in-memory buffer.
void record_span(const Span& span);
/// Every recorded span, in no particular order. Call only after the
/// threads that record have quiesced.
[[nodiscard]] std::vector<Span> collect_spans();
/// Re-key kRuntime spans, recorded under the server-side key of the task
/// they ran, to the measured request (index into `samples`) with that key
/// whose [start, end] contains the span's start. Unmatched spans are
/// dropped. Client-side spans are already keyed by request index.
[[nodiscard]] std::vector<Span> join_spans(std::vector<Span> spans,
                                           const std::vector<Sample>& samples);
/// Write spans as CSV (name, request, start_ms, end_ms, parent, members);
/// the parent of every span but a request's root is that root.
void write_spans(const std::string& path, const std::vector<Span>& spans);
/// Self time of each request: its kRequest duration minus the part of it
/// covered by its child spans. Requests without a root span are skipped.
[[nodiscard]] std::vector<double> request_self_ms(
    const std::vector<Span>& spans);

// ---------------------------------------------------------------- fixtures

/// MSDNet-14 (step 1, base 2, channel 8) on 16x16 SynthCIFAR10.
[[nodiscard]] einet::models::MultiExitNetwork make_msdnet14();
/// Fine-grained VGG-16 (14 exits) on 48x48 SynthCIFAR10.
[[nodiscard]] einet::models::MultiExitNetwork make_vgg16_48();
[[nodiscard]] std::string fixture_path(const Options& opt,
                                       const std::string& name);
/// Train both fixture backbones deterministically and write them to
/// `dir` as EINW weight files.
void make_fixtures(const std::string& dir);

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main: the counts, the end-to-end
/// metrics (untraced runs) or the per-layer ones (traced runs), and the
/// run-record facts.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, double> layers;
  /// Run-record facts (configuration and sample counts).
  std::vector<std::pair<std::string, double>> facts;
  /// Traced runs: every span, keyed by measured request.
  std::vector<Span> spans;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(const std::string& name, double value) { layers[name] = value; }
  void fact(std::string name, double value) {
    facts.emplace_back(std::move(name), value);
  }
};

/// Every per-layer metric (name, unit) in report order. A traced run
/// reports all of them; a layer its workload's path never enters reads 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// A verification failure: the run exits non-zero and records no metrics.
struct VerifyError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void check(bool ok, const std::string& what);

/// Keeps every CPU the process may run on polling while a run lasts: one
/// thread per CPU, pinned to it at SCHED_IDLE priority, spinning on
/// `pause`. A serving thread that wakes up then preempts a poller on a
/// running vCPU instead of waiting for the hypervisor to wake a halted one,
/// so request latencies carry the program's hand-offs rather than the VM's
/// wake-up latency, and the host sees the same load on every vCPU whatever
/// the workload leaves idle. Normal threads always preempt a poller. Where
/// SCHED_IDLE cannot be set no poller runs.
class IdlePollers {
 public:
  IdlePollers();
  ~IdlePollers();
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;
  [[nodiscard]] std::size_t count() const { return threads_.size(); }

 private:
  void stop();

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Wall time of each set-up step of one deployment, in seconds.
struct SetupTimes {
  double total = 0.0;
  double profile = 0.0;
  double predictor = 0.0;
  double freeze = 0.0;
  double quantize = 0.0;
  double start = 0.0;
};
/// Times consecutive set-up steps: lap() is the seconds since the previous
/// lap (or construction), total() the seconds since construction.
class StepClock {
 public:
  double lap();
  [[nodiscard]] double total() const { return (now_ms() - start_) / 1000.0; }

 private:
  double start_ = now_ms();
  double last_ = start_;
};

/// The setup.* layer metrics: the median of each step over the set-ups.
void add_setup_layers(Report& rep, const std::vector<SetupTimes>& setups);

/// The measured phase runs in rounds. Each round sets up a fresh deployment
/// (timed), warms it up, runs whole passes and tears it down before the
/// next round sets up. So the set-up times sample the same stretch of host
/// time as the passes, and no two deployments are ever alive together.
class Rounds {
 public:
  explicit Rounds(const Options& opt);

  [[nodiscard]] std::size_t count() const { return count_; }
  /// Whether round `round`, having run `passes` passes, runs another:
  /// always a first one; then, except in smoke runs, while the measured
  /// time of the run is short of `round + 1` shares of --seconds.
  [[nodiscard]] bool more(std::size_t round, std::size_t passes,
                          double measured_ms) const;

 private:
  std::size_t count_;
  double budget_ms_;
};

/// The measured phase of a run, folded pass by pass so that memory does not
/// grow with the number of passes: counts, per-window statistics and the
/// first pass's samples (plus every sample in traced runs, for the span
/// join). Window w of a pass covers submissions [w*W, (w+1)*W); its wall
/// time runs to the next window's first submission, so the last window of
/// each pass (which ends in the pass's drain) is left out.
class RunLog {
 public:
  /// `window` must divide the pass length at least twice.
  RunLog(std::size_t window, bool keep_all);

  /// Start counting a new round's requests (see round_answered).
  void begin_round();
  /// Fold one drained pass that took `pass_ms` of wall time. Every pass
  /// replays the same sequence, so every answered outcome must equal the
  /// first pass's.
  void add_pass(const std::vector<Sample>& pass, double pass_ms);

  [[nodiscard]] const std::vector<Sample>& first() const { return first_; }
  [[nodiscard]] const std::vector<Sample>& all() const { return all_; }
  [[nodiscard]] std::size_t window() const { return window_; }
  [[nodiscard]] std::size_t passes() const { return passes_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t answered() const { return answered_; }
  [[nodiscard]] std::uint64_t correct() const { return correct_; }
  /// Answered and correct requests since begin_round.
  [[nodiscard]] std::uint64_t round_answered() const { return round_answered_; }
  [[nodiscard]] std::uint64_t round_correct() const { return round_correct_; }
  /// Wall time of all passes so far (set-ups and warm-ups excluded).
  [[nodiscard]] double measured_ms() const { return measured_ms_; }
  /// Median window throughput (requests/s) over all windows, or over the
  /// windows of one parity (traced runs trace the odd ones).
  [[nodiscard]] double tps(int parity = -1) const;

  struct Window {
    int parity = 0;
    double tps = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0;
  };
  [[nodiscard]] const std::vector<Window>& windows() const { return windows_; }

 private:
  std::size_t window_;
  bool keep_all_;
  std::size_t passes_ = 0;
  std::uint64_t attempted_ = 0, answered_ = 0, correct_ = 0;
  std::uint64_t round_answered_ = 0, round_correct_ = 0;
  double measured_ms_ = 0.0;
  std::vector<Window> windows_;
  std::vector<Sample> first_;
  std::vector<Sample> all_;
};

/// The round's server completed exactly the probe, warm-up and measured
/// requests of the round, and its correct count agrees with the client-side
/// outcomes (plus the probe's, which may add one).
void check_server_counts(std::uint64_t completed, std::uint64_t correct,
                         const std::vector<Sample>& warm, const RunLog& log);

/// attempted / failed of the measured phase.
void set_counts(Report& rep, const RunLog& log);
/// The seven end-to-end metrics, as measured: throughput is answered
/// requests over the wall time of all passes, the latency percentiles are
/// medians over windows, setup_s is the median over the rounds' set-ups and
/// peak_rss_mib the VmHWM when the run ends.
void add_end_to_end(Report& rep, const RunLog& log,
                    const std::vector<SetupTimes>& setups);
/// runtime.* / core.* metrics read off the first pass's outcomes (every
/// pass has the same ones), given the mean runtime span per task, and
/// trace.overhead_share from the traced and untraced windows.
void add_run_layers(Report& rep, const RunLog& log, double task_ms);

// --------------------------------------------------------------- workloads

[[nodiscard]] Report run_live_batched(const Options& opt);
[[nodiscard]] Report run_replay_tcp(const Options& opt);
[[nodiscard]] Report run_split_int8(const Options& opt);

}  // namespace perfbench
