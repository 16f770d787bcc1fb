#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <pthread.h>
#include <sched.h>
#include <system_error>
#include <unordered_map>

#include "data/synthetic.hpp"
#include "models/backbones.hpp"
#include "models/trainer.hpp"
#include "nn/gemm.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

double now_ms() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double pct(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return pct(std::move(xs), 50.0); }

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

std::vector<Request> make_sequence(std::size_t items, std::size_t strata,
                                   double lo_ms, double hi_ms,
                                   std::uint64_t seed) {
  einet::util::Rng points{0xDEAD11E5};  // fixed: budgets do not follow seed
  std::vector<Request> seq;
  seq.reserve(items * strata);
  const double width = (hi_ms - lo_ms) / static_cast<double>(strata);
  for (std::size_t s = 0; s < strata; ++s)
    for (std::size_t i = 0; i < items; ++i)
      seq.push_back(
          {static_cast<std::uint32_t>(i),
           lo_ms + width * (static_cast<double>(s) + points.uniform())});
  einet::util::Rng order{seed * 0x9E3779B97F4A7C15ULL + 0x5EED};
  order.shuffle(seq);
  return seq;
}

bool same_outcome(const einet::runtime::InferenceOutcome& a,
                  const einet::runtime::InferenceOutcome& b) {
  return a.has_result == b.has_result && a.exit_index == b.exit_index &&
         a.correct == b.correct && a.completed == b.completed &&
         a.branches_executed == b.branches_executed &&
         a.searches_run == b.searches_run &&
         std::bit_cast<std::uint64_t>(a.result_time_ms) ==
             std::bit_cast<std::uint64_t>(b.result_time_ms) &&
         std::bit_cast<std::uint64_t>(a.deadline_ms) ==
             std::bit_cast<std::uint64_t>(b.deadline_ms);
}

// ------------------------------------------------------------------ spans

namespace {

std::atomic<bool> g_tracing{false};

struct SpanBuffers {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<Span>>> all;  // guarded by mu
};

SpanBuffers& span_buffers() {
  static SpanBuffers buffers;
  return buffers;
}

/// The calling thread's buffer; owned by the registry so it outlives the
/// thread and collect_spans can read it after the thread has exited.
std::vector<Span>& local_spans() {
  thread_local std::vector<Span>* buf = [] {
    auto& b = span_buffers();
    const std::lock_guard<std::mutex> lock{b.mu};
    b.all.push_back(std::make_unique<std::vector<Span>>());
    b.all.back()->reserve(std::size_t{1} << 12);
    return b.all.back().get();
  }();
  return *buf;
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void record_span(const Span& span) { local_spans().push_back(span); }

std::vector<Span> collect_spans() {
  auto& b = span_buffers();
  const std::lock_guard<std::mutex> lock{b.mu};
  std::vector<Span> out;
  for (const auto& buf : b.all) out.insert(out.end(), buf->begin(), buf->end());
  return out;
}

std::vector<Span> join_spans(std::vector<Span> spans,
                             const std::vector<Sample>& samples) {
  std::unordered_multimap<std::uint64_t, std::size_t> by_key;
  for (std::size_t i = 0; i < samples.size(); ++i)
    if (samples[i].answered) by_key.emplace(samples[i].key, i);
  std::vector<Span> out;
  out.reserve(spans.size());
  for (auto& s : spans) {
    if (s.name == SpanName::kRuntime) {
      const auto [lo, hi] = by_key.equal_range(s.request);
      bool matched = false;
      for (auto it = lo; it != hi && !matched; ++it) {
        const Sample& x = samples[it->second];
        if (x.start_ms <= s.start_ms && s.start_ms <= x.end_ms) {
          s.request = it->second;
          matched = true;
        }
      }
      if (!matched) continue;
    }
    out.push_back(s);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  static const char* const kNames[] = {"request", "submit", "send", "runtime"};
  std::ofstream out{path};
  out << "name,request,start_ms,end_ms,parent,members\n";
  out.precision(17);
  for (const auto& s : spans)
    out << kNames[static_cast<int>(s.name)] << ',' << s.request << ','
        << s.start_ms << ',' << s.end_ms << ','
        << (s.name == SpanName::kRequest ? "" : "request") << ',' << s.members
        << '\n';
  if (!out) throw std::runtime_error{"cannot write spans to " + path};
}

std::vector<double> request_self_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, const Span*> roots;
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const auto& s : spans) {
    if (s.name == SpanName::kRequest)
      roots[s.request] = &s;
    else
      children[s.request].emplace_back(s.start_ms, s.end_ms);
  }
  std::vector<double> self;
  self.reserve(roots.size());
  for (const auto& [id, root] : roots) {
    auto& kids = children[id];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, root->start_ms);
      hi = std::min(hi, root->end_ms);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self.push_back(root->end_ms - root->start_ms - covered);
  }
  return self;
}

// ---------------------------------------------------------------- fixtures

namespace {

// Training is deterministic at one GEMM thread: fixed data seed, fixed init
// seed, fixed trainer seed.
constexpr std::uint64_t kInitSeed = 7;

}  // namespace

einet::models::MultiExitNetwork make_msdnet14() {
  einet::util::Rng rng{kInitSeed};
  return einet::models::make_msdnet(
      {.blocks = 14, .step = 1, .base = 2, .channel = 8}, {3, 16, 16}, 10,
      rng);
}

einet::models::MultiExitNetwork make_vgg16_48() {
  einet::util::Rng rng{kInitSeed};
  return einet::models::make_vgg16_finegrained({3, 48, 48}, 10, rng);
}

std::string fixture_path(const Options& opt, const std::string& name) {
  return opt.root + "/perfbench/fixtures/" + name;
}

void make_fixtures(const std::string& dir) {
  einet::nn::set_gemm_threads(1);
  struct Job {
    const char* file;
    einet::models::MultiExitNetwork (*make)();
    std::size_t side, train, epochs;
  };
  for (const Job& job : {Job{"msdnet14_16.einw", make_msdnet14, 16, 2000, 8},
                         Job{"vgg16_48.einw", make_vgg16_48, 48, 1200, 6}}) {
    auto spec = einet::data::synth_cifar10_spec(job.train, 16, 11);
    spec.height = spec.width = job.side;
    const auto ds = einet::data::make_synthetic(spec);
    auto net = job.make();
    einet::models::TrainConfig tc;
    tc.epochs = job.epochs;
    tc.seed = 42;
    einet::util::Timer timer;
    einet::models::MultiExitTrainer{net}.train(*ds.train, tc);
    net.save_weights(dir + "/" + job.file);
    std::cerr << "fixture " << job.file << ": trained in " << timer.elapsed_s()
              << " s\n";
  }
}

// ----------------------------------------------------------------- report

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names{
      {"setup.profile_s", "s"},
      {"setup.predictor_s", "s"},
      {"setup.freeze_s", "s"},
      {"setup.quantize_s", "s"},
      {"setup.start_s", "s"},
      {"serving.submit_us.p50", "us"},
      {"serving.overhead_ms.p50", "ms"},
      {"serving.queue_ms.p50", "ms"},
      {"serving.queue_peak", "count"},
      {"serving.batch.size_mean", "count"},
      {"serving.batch.fill", "fraction"},
      {"serving.batch.assembler_ms.p50", "ms"},
      {"serving.batch.bypass_share", "fraction"},
      {"runtime.batch_ms.p50", "ms"},
      {"runtime.task_ms.mean", "ms"},
      {"runtime.resume_ms.p50", "ms"},
      {"runtime.branches_per_task", "count"},
      {"runtime.branch_yield", "fraction"},
      {"runtime.explained_share", "fraction"},
      {"core.searches_per_task", "count"},
      {"core.search_us.mean", "us"},
      {"core.planner_share", "fraction"},
      {"core.plans_per_search", "count"},
      {"predictor.predict_us.mean", "us"},
      {"nn.conv_ms.b1", "ms"},
      {"nn.conv_ms.b8", "ms"},
      {"nn.conv_gflops.b8", "GFLOP/s"},
      {"nn.branch_ms.b1", "ms"},
      {"nn.quant.conv_ms.b1", "ms"},
      {"nn.quant.speedup.b1", "ratio"},
      {"net.send_us.p50", "us"},
      {"net.overhead_ms.p50", "ms"},
      {"net.respond_ms.p50", "ms"},
      {"net.bytes_per_request", "bytes"},
      {"net.encode_activation_us.mean", "us"},
      {"net.errors", "count"},
      {"split.offload_share", "fraction"},
      {"split.block_mean", "count"},
      {"split.offload_ms.p50", "ms"},
      {"split.device_ms.p50", "ms"},
      {"split.wire_kib_mean", "KiB"},
      {"split.fallback_share", "fraction"},
      {"trace.overhead_share", "fraction"},
  };
  return names;
}

void check(bool ok, const std::string& what) {
  if (!ok) throw VerifyError{what};
}

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace

IdlePollers::IdlePollers() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    std::atomic<int> state{0};  // 1: polling, -1: could not go idle
    try {
      threads_.emplace_back([this, cpu, &state] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        const sched_param param{};
        if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) != 0 ||
            pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          state.store(-1);
          return;
        }
        state.store(1);
        while (!stop_.load(std::memory_order_relaxed)) cpu_relax();
      });
    } catch (const std::system_error&) {
      state.store(-1);  // no thread to spare: run without pollers
    }
    while (state.load() == 0) std::this_thread::yield();
    if (state.load() < 0) {  // no idle class here: run without pollers
      stop();
      return;
    }
  }
}

IdlePollers::~IdlePollers() { stop(); }

void IdlePollers::stop() {
  stop_.store(true);
  for (auto& t : threads_) t.join();
  threads_.clear();
}

double peak_rss_mib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

Rounds::Rounds(const Options& opt)
    : count_(opt.smoke ? 2 : 10),
      budget_ms_(opt.smoke ? 0.0 : 1000.0 * opt.seconds) {}

bool Rounds::more(std::size_t round, std::size_t passes,
                  double measured_ms) const {
  if (passes == 0) return true;
  return measured_ms < budget_ms_ * static_cast<double>(round + 1) /
                           static_cast<double>(count_);
}

RunLog::RunLog(std::size_t window, bool keep_all)
    : window_(window), keep_all_(keep_all) {}

void RunLog::begin_round() { round_answered_ = round_correct_ = 0; }

void RunLog::add_pass(const std::vector<Sample>& pass, double pass_ms) {
  if (pass.size() < 2 * window_ || pass.size() % window_ != 0)
    throw std::logic_error{"RunLog: window must divide the pass twice"};
  if (first_.empty()) first_ = pass;
  measured_ms_ += pass_ms;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    const Sample& s = pass[i];
    ++attempted_;
    if (!s.answered) continue;
    ++answered_;
    ++round_answered_;
    const std::uint64_t hit = s.outcome.correct ? 1 : 0;
    correct_ += hit;
    round_correct_ += hit;
    check(!first_[i].answered || same_outcome(s.outcome, first_[i].outcome),
          "outcome changed between passes of one sequence");
  }
  const std::size_t per_pass = pass.size() / window_;
  for (std::size_t w = 0; w + 1 < per_pass; ++w) {
    const std::size_t lo = w * window_, hi = lo + window_;
    std::vector<double> lat;
    for (std::size_t i = lo; i < hi; ++i)
      if (pass[i].answered) lat.push_back(pass[i].end_ms - pass[i].start_ms);
    Window win;
    win.parity = static_cast<int>((passes_ * per_pass + w) % 2);
    win.tps = 1000.0 * static_cast<double>(lat.size()) /
              (pass[hi].start_ms - pass[lo].start_ms);
    win.p50 = pct(lat, 50);
    win.p90 = pct(lat, 90);
    win.p99 = pct(std::move(lat), 99);
    windows_.push_back(win);
  }
  if (keep_all_) all_.insert(all_.end(), pass.begin(), pass.end());
  ++passes_;
}

double RunLog::tps(int parity) const {
  std::vector<double> xs;
  for (const auto& w : windows_)
    if (parity < 0 || w.parity == parity) xs.push_back(w.tps);
  return median(std::move(xs));
}

double StepClock::lap() {
  const double now = now_ms(), s = (now - last_) / 1000.0;
  last_ = now;
  return s;
}

void add_setup_layers(Report& rep, const std::vector<SetupTimes>& setups) {
  const auto step = [&](double SetupTimes::*field) {
    std::vector<double> xs;
    for (const auto& t : setups) xs.push_back(t.*field);
    return median(std::move(xs));
  };
  rep.layer("setup.profile_s", step(&SetupTimes::profile));
  rep.layer("setup.predictor_s", step(&SetupTimes::predictor));
  rep.layer("setup.freeze_s", step(&SetupTimes::freeze));
  rep.layer("setup.quantize_s", step(&SetupTimes::quantize));
  rep.layer("setup.start_s", step(&SetupTimes::start));
}

void add_run_layers(Report& rep, const RunLog& log, double task_ms) {
  double branches = 0.0, results = 0.0, searches = 0.0, planner_ms = 0.0;
  for (const auto& s : log.first()) {
    branches += static_cast<double>(s.outcome.branches_executed);
    results += s.outcome.has_result ? 1.0 : 0.0;
    searches += static_cast<double>(s.outcome.searches_run);
    planner_ms += s.outcome.planner_ms;
  }
  const double n = static_cast<double>(log.first().size());
  rep.layer("runtime.task_ms.mean", task_ms);
  rep.layer("runtime.branches_per_task", branches / n);
  rep.layer("runtime.branch_yield", branches > 0.0 ? results / branches : 0.0);
  rep.layer("core.searches_per_task", searches / n);
  rep.layer("core.search_us.mean",
            searches > 0.0 ? 1000.0 * planner_ms / searches : 0.0);
  rep.layer("core.planner_share",
            task_ms > 0.0 ? planner_ms / n / task_ms : 0.0);
  rep.layer("trace.overhead_share", 1.0 - log.tps(1) / log.tps(0));
}

void check_server_counts(std::uint64_t completed, std::uint64_t correct,
                         const std::vector<Sample>& warm, const RunLog& log) {
  std::uint64_t warm_correct = 0;
  for (const auto& s : warm) warm_correct += s.outcome.correct ? 1 : 0;
  check(completed == 1 + warm.size() + log.round_answered(),
        "server completions disagree with answered requests");
  const auto probe_correct = static_cast<std::int64_t>(correct) -
                             static_cast<std::int64_t>(warm_correct +
                                                       log.round_correct());
  check(probe_correct == 0 || probe_correct == 1,
        "server accuracy disagrees with the verified outcomes");
}

void set_counts(Report& rep, const RunLog& log) {
  rep.attempted = log.attempted();
  rep.failed = log.attempted() - log.answered();
}

void add_end_to_end(Report& rep, const RunLog& log,
                    const std::vector<SetupTimes>& setups) {
  std::vector<double> p50, p90, p99, setup_s;
  for (const auto& w : log.windows()) {
    p50.push_back(w.p50);
    p90.push_back(w.p90);
    p99.push_back(w.p99);
  }
  for (const auto& t : setups) setup_s.push_back(t.total);
  const double attempted = static_cast<double>(log.attempted());
  set_counts(rep, log);
  rep.add("setup_s", median(setup_s), "s");
  rep.add("throughput_tps",
          1000.0 * static_cast<double>(log.answered()) / log.measured_ms(),
          "requests/s");
  rep.add("p50_ms", median(std::move(p50)), "ms");
  rep.add("p90_ms", median(std::move(p90)), "ms");
  rep.add("accuracy", static_cast<double>(log.correct()) / attempted,
          "fraction");
  rep.add("success_share", static_cast<double>(log.answered()) / attempted,
          "fraction");
  rep.add("peak_rss_mib", peak_rss_mib(), "MiB");
  rep.fact("window_throughput_tps", log.tps());
  rep.fact("p99_ms_diagnostic", median(std::move(p99)));
  rep.fact("measured_s", log.measured_ms() / 1000.0);
  rep.fact("latency_samples", static_cast<double>(log.answered()));
  rep.fact("latency_windows", static_cast<double>(log.windows().size()));
  rep.fact("window_requests", static_cast<double>(log.window()));
  rep.fact("setups", static_cast<double>(setups.size()));
}

}  // namespace perfbench
