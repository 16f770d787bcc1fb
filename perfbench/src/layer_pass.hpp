// Single-threaded layer pass, run after a workload's timed phase: a seeded
// sample of the workload's own requests goes through the public stepwise
// APIs (run_conv_part, run_branch, QuantizedBackbone::run_conv_part,
// ActivationCacheSession::predict, SearchEngine::search, encode_activation),
// each call timed on its own.
#pragma once

#include <cstddef>
#include <vector>

#include "core/time_distribution.hpp"
#include "models/multiexit.hpp"
#include "nn/quant/backbone.hpp"
#include "nn/tensor.hpp"
#include "predictor/cs_predictor.hpp"
#include "profiling/profiles.hpp"

namespace perfbench {

/// One sampled request. Live workloads set `image`; replay sets `record`.
/// `split_block` is where the edge's share of the request starts (0 for
/// everything but offloaded split requests).
struct PassRequest {
  const einet::nn::Tensor* image = nullptr;
  const einet::profiling::CSRecord* record = nullptr;
  std::size_t label = 0;
  double deadline_ms = 0.0;
  std::size_t split_block = 0;
};

struct PassModel {
  /// Null for replay (no tensors run).
  const einet::models::MultiExitNetwork* net = nullptr;
  /// Set when the served trunk is int8; its conv parts then price the
  /// estimate and are timed against the fp32 ones.
  const einet::nn::quant::QuantizedBackbone* quant = nullptr;
  const einet::predictor::CSPredictor* predictor = nullptr;
  const einet::profiling::ETProfile* et = nullptr;
  const einet::core::TimeDistribution* dist = nullptr;
  /// The served conv part runs stacked (batched engine): price each block
  /// at the batch-8 per-row time instead of batch 1.
  bool batched = false;
  /// Time encode_activation on the frame entering each request's split
  /// block.
  bool encode = false;
};

struct PassResult {
  double conv_ms_b1 = 0.0;  // sum over blocks, median per block
  double conv_ms_b8 = 0.0;
  double conv_gflops_b8 = 0.0;
  double branch_ms_b1 = 0.0;
  double qconv_ms_b1 = 0.0;
  double quant_speedup_b1 = 0.0;
  double predict_us_mean = 0.0;
  double plans_per_search = 0.0;
  double encode_us_mean = 0.0;
  /// Mean per-request sum of the layer calls the served runtime span
  /// makes (the numerator of runtime.explained_share).
  double est_task_ms = 0.0;
};

[[nodiscard]] PassResult layer_pass(const PassModel& model,
                                    const std::vector<PassRequest>& requests);

struct Report;
/// The layer pass's metrics, plus runtime.explained_share against the
/// measured mean runtime span per task.
void add_pass_layers(Report& rep, const PassResult& pass, double task_ms);

}  // namespace perfbench
