// live_batched: closed loop of live 16x16 images through EdgeServer's
// batched mode. One generator thread keeps kInFlight requests in flight via
// submit_live; the BatchAssembler seals micro-batches of up to kMaxBatch;
// each of kWorkers workers runs its own BatchedLiveEngine over one frozen
// fp32 MSDNet-14 SharedModel, picked by the runner's worker_id.
#include <algorithm>
#include <future>
#include <memory>
#include <semaphore>

#include "core/time_distribution.hpp"
#include "data/synthetic.hpp"
#include "harness.hpp"
#include "layer_pass.hpp"
#include "nn/gemm.hpp"
#include "profiling/platform.hpp"
#include "profiling/profiler.hpp"
#include "runtime/batched_engine.hpp"
#include "runtime/live_engine.hpp"
#include "serving/replicate.hpp"
#include "serving/server.hpp"

namespace perfbench {

namespace {

using namespace einet;

constexpr std::size_t kWorkers = 2;
constexpr std::ptrdiff_t kInFlight = 32;
constexpr std::size_t kMaxBatch = 8;

struct Deployment {
  profiling::ETProfile et;
  std::unique_ptr<core::UniformExitDistribution> dist;
  serving::SharedModel model;
  std::vector<std::unique_ptr<runtime::BatchedLiveEngine>> engines;
  std::unique_ptr<serving::EdgeServer> server;  // last: stops first
  SetupTimes times;
};

/// Load the fixture and bring the server up, timing each step; ends when
/// the server has answered its first request.
std::unique_ptr<Deployment> set_up(const Options& opt,
                                   const data::Dataset& profile_set,
                                   const nn::Tensor& probe) {
  auto d = std::make_unique<Deployment>();
  StepClock clock;
  auto net = make_msdnet14();
  net.load_weights(fixture_path(opt, "msdnet14_16.einw"));
  clock.lap();  // the fixture load counts in the total only
  d->et = profiling::profile_execution_time(net,
                                            profiling::edge_fast_platform());
  const auto cs = profiling::profile_confidence(net, profile_set);
  d->times.profile = clock.lap();
  predictor::CSPredictorConfig pc;
  pc.hidden = 32;
  pc.epochs = 10;
  auto pred = std::make_unique<predictor::CSPredictor>(net.num_exits(), pc);
  pred->train(cs);
  d->times.predictor = clock.lap();
  d->model = serving::freeze_model(std::move(net), std::move(pred));
  d->times.freeze = clock.lap();

  d->dist = std::make_unique<core::UniformExitDistribution>(d->et.total_ms());
  for (std::size_t w = 0; w < kWorkers; ++w)
    d->engines.push_back(std::make_unique<runtime::BatchedLiveEngine>(
        d->model.net, d->et, d->model.predictor, runtime::ElasticConfig{},
        d->model.plan));
  const serving::batch::MicroBatchRunner runner =
      [engines = &d->engines, dist = d->dist.get()](
          runtime::ElasticEngine&, const serving::batch::MicroBatch& mb,
          std::size_t worker_id, util::Rng&) {
        std::vector<runtime::BatchItem> items;
        items.reserve(mb.size());
        for (const auto& task : mb.tasks)
          items.push_back({.image = task.image.get(),
                           .label = task.label,
                           .deadline_ms = task.deadline_ms,
                           .cancel = task.cancel.get()});
        const bool traced = tracing();
        const double start = now_ms();
        auto out = (*engines)[worker_id]->run_batched(items, *dist);
        if (traced) {
          const double end = now_ms();
          for (std::size_t i = 0; i < mb.size(); ++i)
            record_span({SpanName::kRuntime, mb.tasks[i].id, start, end,
                         i == 0 ? static_cast<std::uint32_t>(mb.size()) : 0});
        }
        return out;
      };
  const std::size_t n = d->et.num_blocks();
  const double first_exit = d->et.conv_ms[0] + d->et.branch_ms[0];
  serving::ServerConfig sc;
  sc.queue_capacity = 256;
  sc.pool.num_workers = kWorkers;
  d->server = std::make_unique<serving::EdgeServer>(
      d->et,
      serving::make_replicated_engine_factory(d->et, nullptr, {},
                                              std::vector<float>(n, 0.0f)),
      runner,
      serving::batch::BatchAssemblerConfig{.max_batch = kMaxBatch,
                                           .max_wait_ms = 2.0,
                                           .bypass_slack_ms = 2.0 * first_exit},
      sc);
  std::promise<void> answered;
  const auto status = d->server->submit_live(
      std::make_shared<const nn::Tensor>(probe), 0, d->et.total_ms(),
      [&answered](const serving::TaskResult&) { answered.set_value(); });
  check(status == serving::SubmitStatus::kQueued, "probe request refused");
  answered.get_future().wait();
  d->times.start = clock.lap();
  d->times.total = clock.total();
  return d;
}

}  // namespace

Report run_live_batched(const Options& opt) {
  nn::set_gemm_threads(1);
  const std::size_t pool = opt.smoke ? 32 : 256;
  const std::size_t strata = opt.smoke ? 2 : 16;
  const std::size_t window = opt.smoke ? 16 : 512;

  // Inputs are the benchmark's own work: a profiling split and a request
  // pool the fixture never trained on.
  const auto ds = data::make_synthetic(
      data::synth_cifar10_spec(opt.smoke ? 64 : 256, pool, 1011));
  std::vector<std::shared_ptr<const nn::Tensor>> images;
  for (std::size_t i = 0; i < pool; ++i)
    images.push_back(
        std::make_shared<const nn::Tensor>(ds.test->sample(i).image));

  // Every deployment profiles the same fixture to the same ET profile, so
  // the first one fixes the sequence for the whole run.
  std::vector<SetupTimes> setup_times;
  auto d = set_up(opt, *ds.train, *images[0]);
  setup_times.push_back(d->times);
  const double total_ms = d->et.total_ms();
  const double first_exit = d->et.conv_ms[0] + d->et.branch_ms[0];
  const auto seq = make_sequence(pool, strata, first_exit, total_ms, opt.seed);

  // Closed loop: a slot is taken per submission and given back by the
  // completion callback (or at once when the server refuses the request).
  std::counting_semaphore<kInFlight> slots{kInFlight};
  const auto submit = [&](const Request& rq, Sample* s, std::uint64_t id,
                          bool traced) {
    slots.acquire();
    s->start_ms = now_ms();
    const auto status = d->server->submit_live(
        images[rq.item], ds.test->sample(rq.item).label, rq.deadline_ms,
        [s, id, traced, &slots](const serving::TaskResult& r) {
          s->end_ms = now_ms();
          s->key = r.id;
          s->outcome = r.outcome;
          s->answered = true;
          if (traced)
            record_span({SpanName::kRequest, id, s->start_ms, s->end_ms});
          slots.release();
        });
    if (traced)
      record_span({SpanName::kSubmit, id, s->start_ms, now_ms()});
    if (status != serving::SubmitStatus::kQueued) {
      s->end_ms = now_ms();
      slots.release();
    }
  };
  const auto drain = [&] {
    for (std::ptrdiff_t i = 0; i < kInFlight; ++i) slots.acquire();
    for (std::ptrdiff_t i = 0; i < kInFlight; ++i) slots.release();
  };

  const Rounds rounds{opt};
  RunLog log{window, opt.trace};
  std::vector<Sample> pass(seq.size());
  std::uint64_t id = 0;
  serving::MetricsSnapshot snap;
  for (std::size_t r = 0; r < rounds.count(); ++r) {
    if (r > 0) {
      d.reset();
      d = set_up(opt, *ds.train, *images[0]);
      setup_times.push_back(d->times);
      check(d->et.total_ms() == total_ms, "set-ups profiled differently");
    }
    // Warm-up: one window's worth, untimed and unverified.
    std::vector<Sample> warm(std::min(window, seq.size()));
    for (std::size_t i = 0; i < warm.size(); ++i)
      submit(seq[i], &warm[i], 0, false);
    drain();

    // Measured passes over the sequence; each pass is drained and folded
    // into the log before the next one starts.
    log.begin_round();
    for (std::size_t p = 0; rounds.more(r, p, log.measured_ms()); ++p) {
      std::fill(pass.begin(), pass.end(), Sample{});
      const double t0 = now_ms();
      for (std::size_t i = 0; i < seq.size(); ++i, ++id) {
        const bool traced = opt.trace && (id / window) % 2 == 1;
        if (traced != tracing()) set_tracing(traced);
        submit(seq[i], &pass[i], id, traced);
      }
      drain();
      log.add_pass(pass, now_ms() - t0);
    }
    set_tracing(false);
    d->server->shutdown();
    snap = d->server->metrics();
    check(snap.admitted == snap.completed, "admitted != completed");
    check_server_counts(snap.completed, snap.correct, warm, log);
  }
  const auto& et = d->et;

  // -- verification --------------------------------------------------------
  const auto& first = log.first();
  {
    // A seeded sample of members must equal a solo run bit for bit.
    runtime::LiveElasticEngine solo{d->model.net, et, d->model.predictor,
                                    runtime::ElasticConfig{}, d->model.plan};
    const std::size_t stride = opt.smoke ? 1 : seq.size() / 64;
    for (std::size_t i = 0; i < seq.size(); i += stride) {
      if (!first[i].answered) continue;
      const auto ref = solo.run(*images[seq[i].item],
                                ds.test->sample(seq[i].item).label,
                                seq[i].deadline_ms, *d->dist);
      check(same_outcome(ref, first[i].outcome),
            "batched member differs from its solo run");
    }
  }

  Report rep;
  rep.fact("workers", kWorkers);
  rep.fact("in_flight", kInFlight);
  rep.fact("max_batch", kMaxBatch);
  rep.fact("gemm_threads", static_cast<double>(nn::gemm_threads()));
  rep.fact("first_exit_ms", first_exit);
  rep.fact("total_profiled_ms", et.total_ms());
  rep.fact("sequence_requests", static_cast<double>(seq.size()));
  rep.fact("passes", static_cast<double>(log.passes()));
  if (!opt.trace) {
    add_end_to_end(rep, log, setup_times);
    return rep;
  }

  // -- traced run: per-layer metrics --------------------------------------
  set_counts(rep, log);
  add_setup_layers(rep, setup_times);
  rep.spans = join_spans(collect_spans(), log.all());
  const auto& spans = rep.spans;
  std::vector<double> submit_us, batch_ms;
  double runtime_ms = 0.0, members = 0.0;
  for (const auto& s : spans) {
    if (s.name == SpanName::kSubmit)
      submit_us.push_back(1000.0 * (s.end_ms - s.start_ms));
    if (s.name == SpanName::kRuntime && s.members > 0) {
      batch_ms.push_back(s.end_ms - s.start_ms);
      runtime_ms += s.end_ms - s.start_ms;
      members += s.members;
    }
  }
  const double task_ms = members > 0.0 ? runtime_ms / members : 0.0;
  const auto self_ms = request_self_ms(spans);
  rep.fact("submit_spans", static_cast<double>(submit_us.size()));
  rep.fact("batch_spans", static_cast<double>(batch_ms.size()));
  rep.fact("traced_requests", static_cast<double>(self_ms.size()));
  rep.layer("serving.submit_us.p50", pct(submit_us, 50));
  rep.layer("serving.overhead_ms.p50", pct(self_ms, 50));
  rep.layer("serving.queue_ms.p50", snap.stage_queue.p50_ms);
  rep.layer("serving.queue_peak", static_cast<double>(snap.queue_peak_depth));
  rep.layer("serving.batch.size_mean", snap.batch_size.stats.mean());
  rep.layer("serving.batch.fill",
            snap.batch_size.stats.mean() / static_cast<double>(kMaxBatch));
  rep.layer("serving.batch.assembler_ms.p50", snap.assembler_wait.p50_ms);
  rep.layer("serving.batch.bypass_share",
            static_cast<double>(snap.bypassed) /
                static_cast<double>(std::max<std::uint64_t>(snap.batches, 1)));
  rep.layer("runtime.batch_ms.p50", pct(batch_ms, 50));
  add_run_layers(rep, log, task_ms);

  std::vector<PassRequest> sample_reqs;
  for (std::size_t i = 0; i < std::min<std::size_t>(opt.smoke ? 8 : 32,
                                                      seq.size());
       ++i)
    sample_reqs.push_back({.image = images[seq[i].item].get(),
                           .label = ds.test->sample(seq[i].item).label,
                           .deadline_ms = seq[i].deadline_ms});
  const auto layers = layer_pass({.net = d->model.net.get(),
                                .predictor = d->model.predictor.get(),
                                .et = &et,
                                .dist = d->dist.get(),
                                .batched = true},
                               sample_reqs);
  add_pass_layers(rep, layers, task_ms);
  return rep;
}

}  // namespace perfbench
