// einet_perfbench — one workload run of the serving benchmark, or the
// fixture step. perfbench/run.py builds this binary and drives it; see
// ../NOTES.md for the workloads and metrics.
//
//   einet_perfbench --workload <live_batched|replay_tcp|split_int8>
//                   --seed N --seconds S --trace 0|1 [--smoke]
//                   [--root DIR] [--record FILE] [--spans FILE]
//   einet_perfbench --make-fixtures DIR
//
// The last line of standard output is the run's JSON result; --record also
// writes it, with the run-record facts, to FILE, and --spans writes a traced
// run's spans as CSV. A run that fails
// verification prints no result and exits 1.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "util/json.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "einet_perfbench: " << why << "\n"
            << "usage: einet_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--smoke] [--root DIR] [--record FILE] "
               "[--spans FILE]\n"
            << "       einet_perfbench --make-fixtures DIR\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    usage("bad value for " + flag);
  }
  if (used != v.size() || v.front() == '-') usage("bad value for " + flag);
  return x;
}

std::string result_json(const perfbench::Report& rep, bool trace) {
  std::ostringstream os;
  einet::util::JsonWriter jw{os};
  jw.begin_object();
  jw.kv("correct", true);
  jw.kv("attempted", rep.attempted);
  jw.kv("failed", rep.failed);
  jw.key("metrics");
  jw.begin_object();
  const auto emit = [&jw](const std::string& name, double value,
                          const std::string& unit) {
    jw.key(name);
    jw.begin_object();
    jw.kv("value", value);
    jw.kv("unit", unit);
    jw.end_object();
  };
  if (trace) {
    for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
      const auto it = rep.layers.find(name);
      emit(name, it == rep.layers.end() ? 0.0 : it->second, unit);
    }
  } else {
    for (const auto& m : rep.metrics) emit(m.name, m.value, m.unit);
  }
  jw.end_object();
  jw.end_object();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string record, spans;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--make-fixtures") {
      perfbench::make_fixtures(next());
      return 0;
    } else if (arg == "--workload") {
      opt.workload = next();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = parse_u64(arg, next());
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(arg, next()));
      have_seconds = opt.seconds >= 1.0;
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--root") {
      opt.root = next();
    } else if (arg == "--record") {
      record = next();
    } else if (arg == "--spans") {
      spans = next();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (>= 1) and --trace are required");

  perfbench::Report (*run)(const Options&) = nullptr;
  if (opt.workload == "live_batched")
    run = perfbench::run_live_batched;
  else if (opt.workload == "replay_tcp")
    run = perfbench::run_replay_tcp;
  else if (opt.workload == "split_int8")
    run = perfbench::run_split_int8;
  else
    usage("unknown workload " + opt.workload);

  perfbench::Report rep;
  try {
    const perfbench::IdlePollers pollers;
    rep = run(opt);
    rep.fact("idle_pollers", static_cast<double>(pollers.count()));
  } catch (const perfbench::VerifyError& e) {
    std::cerr << "einet_perfbench: verification failed: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "einet_perfbench: " << e.what() << "\n";
    return 1;
  }

  const std::string result = result_json(rep, opt.trace);
  if (!spans.empty()) perfbench::write_spans(spans, rep.spans);
  if (!record.empty()) {
    std::ofstream out{record};
    einet::util::JsonWriter jw{out};
    jw.begin_object();
    jw.kv("workload", opt.workload);
    jw.kv("seed", opt.seed);
    jw.kv("seconds", opt.seconds);
    jw.kv("trace", opt.trace);
    jw.kv("smoke", opt.smoke);
    jw.key("facts");
    jw.begin_object();
    for (const auto& [name, value] : rep.facts) jw.kv(name, value);
    jw.end_object();
    jw.key("result");
    jw.raw(result);
    jw.end_object();
    out << "\n";
  }
  std::cout << result << std::endl;
  return 0;
}
