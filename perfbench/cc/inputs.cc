#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "util/check.h"

namespace perfbench {

using bigcity::core::Task;
using bigcity::data::CityDataset;
using bigcity::data::Trajectory;
using bigcity::serve::Request;

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int SplitMix64::Uniform(int lo, int hi) {
  BIGCITY_CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(Next() % span);
}

double SplitMix64::Unit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

void Digest::Bytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

void Digest::Trajectory(const bigcity::data::Trajectory& trajectory) {
  Int(trajectory.user_id);
  Int(trajectory.pattern_label);
  Int(trajectory.length());
  for (const auto& point : trajectory.points) {
    Int(point.segment);
    Real(point.timestamp);
  }
}

void Digest::Request(const bigcity::serve::Request& request) {
  Int(static_cast<int>(request.task));
  Trajectory(request.trajectory);
  Int(static_cast<int64_t>(request.kept.size()));
  for (int index : request.kept) Int(index);
  Int(request.segment);
  Int(request.start_slice);
  Int(request.horizon);
  Int(request.window);
  Int(static_cast<int64_t>(request.masked.size()));
  for (int index : request.masked) Int(index);
  Real(request.deadline_ms);
}

std::string Digest::Hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

// --- Walks -------------------------------------------------------------------

std::vector<Walk> MakeWalkPlan(const CityDataset& dataset, int max_length,
                               uint64_t seed, int count) {
  std::vector<int> eligible;
  for (size_t i = 0; i < dataset.test().size(); ++i) {
    if (dataset.test()[i].length() >= 2) {
      eligible.push_back(static_cast<int>(i));
    }
  }
  BIGCITY_CHECK(!eligible.empty()) << "no test trajectory has two points";
  SplitMix64 rng(seed ^ 0x5741'4c4b'0000'0001ull);
  std::vector<Walk> plan;
  plan.reserve(static_cast<size_t>(count));
  std::vector<int> cycle = eligible;
  while (static_cast<int>(plan.size()) < count) {
    for (int i = static_cast<int>(cycle.size()) - 1; i > 0; --i) {
      std::swap(cycle[static_cast<size_t>(i)],
                cycle[static_cast<size_t>(rng.Uniform(0, i))]);
    }
    for (int index : cycle) {
      if (static_cast<int>(plan.size()) == count) break;
      const int length = std::min(
          dataset.test()[static_cast<size_t>(index)].length(), max_length);
      plan.push_back({index, length});
    }
  }
  return plan;
}

Request WalkRequest(const CityDataset& dataset, const Walk& walk, int prefix) {
  BIGCITY_CHECK(prefix >= 2 && prefix <= walk.length);
  Request request;
  request.task = Task::kNextHop;
  const Trajectory& full = dataset.test()[static_cast<size_t>(walk.trajectory)];
  request.trajectory.user_id = full.user_id;
  request.trajectory.pattern_label = full.pattern_label;
  request.trajectory.points.assign(full.points.begin(),
                                   full.points.begin() + prefix);
  return request;
}

std::string DigestWalkPlan(const CityDataset& dataset,
                           const std::vector<Walk>& plan) {
  Digest digest;
  for (const Walk& walk : plan) {
    digest.Request(WalkRequest(dataset, walk, walk.length));
  }
  return digest.Hex();
}

// --- Mixed traffic -----------------------------------------------------------

MixedStream::MixedStream(const CityDataset* dataset,
                         const bigcity::core::BigCityConfig& config,
                         uint64_t seed)
    : dataset_(dataset),
      config_(config),
      rng_(seed ^ 0x4d49'5845'4400'0002ull) {
  for (const auto* split : {&dataset->train(), &dataset->val(),
                            &dataset->test()}) {
    for (const Trajectory& trip : *split) trips_.push_back(&trip);
  }
  BIGCITY_CHECK(!trips_.empty());
}

const Trajectory& MixedStream::DrawTrajectory(int min_length) {
  for (;;) {
    const Trajectory& trip =
        *trips_[static_cast<size_t>(
            rng_.Uniform(0, static_cast<int>(trips_.size()) - 1))];
    if (trip.length() >= min_length) return trip;
  }
}

Request MixedStream::Next(int* next_segment) {
  if (next_segment != nullptr) *next_segment = -1;
  Request request;
  request.id = next_id_++;
  request.task =
      static_cast<Task>(rng_.Uniform(0, bigcity::core::kNumTasks - 1));
  const int num_segments = dataset_->network().num_segments();
  const int num_slices = dataset_->num_slices();
  const int window = config_.traffic_input_steps;
  switch (request.task) {
    case Task::kNextHop:
    case Task::kTrajClassification:
    case Task::kTravelTimeEstimation:
    case Task::kMostSimilarSearch: {
      const Trajectory& trip = DrawTrajectory(2);
      const int prefix = rng_.Uniform(2, trip.length());
      request.trajectory = trip;
      request.trajectory.points.resize(static_cast<size_t>(prefix));
      if (next_segment != nullptr && request.task == Task::kNextHop &&
          prefix < trip.length()) {
        *next_segment = trip.points[static_cast<size_t>(prefix)].segment;
      }
      break;
    }
    case Task::kTrajRecovery: {
      // Recovery indexes the unclipped trajectory, so its length stays
      // within the model's token limit; at least one point is dropped.
      const Trajectory& trip = DrawTrajectory(3);
      const int length = rng_.Uniform(
          3, std::min(trip.length(), config_.max_trajectory_tokens));
      request.trajectory = trip;
      request.trajectory.points.resize(static_cast<size_t>(length));
      std::vector<int> dropped;
      request.kept.push_back(0);
      for (int i = 1; i + 1 < length; ++i) {
        if (rng_.Unit() < 0.5) {
          dropped.push_back(i);
        } else {
          request.kept.push_back(i);
        }
      }
      if (dropped.empty()) {
        const int drop = rng_.Uniform(1, length - 2);
        request.kept.erase(std::find(request.kept.begin(), request.kept.end(),
                                     drop));
      }
      request.kept.push_back(length - 1);
      break;
    }
    case Task::kTrafficOneStep:
    case Task::kTrafficMultiStep:
    case Task::kTrafficImputation: {
      request.segment = rng_.Uniform(0, num_segments - 1);
      request.start_slice = rng_.Uniform(0, num_slices - window);
      request.horizon = request.task == Task::kTrafficMultiStep
                            ? config_.traffic_horizon
                            : 1;
      request.window = window;
      if (request.task == Task::kTrafficImputation) {
        std::vector<int> positions(static_cast<size_t>(window));
        std::iota(positions.begin(), positions.end(), 0);
        for (int k = 0; k < 3; ++k) {
          const int pick = rng_.Uniform(k, window - 1);
          std::swap(positions[static_cast<size_t>(k)],
                    positions[static_cast<size_t>(pick)]);
        }
        request.masked.assign(positions.begin(), positions.begin() + 3);
        std::sort(request.masked.begin(), request.masked.end());
      }
      break;
    }
  }
  return request;
}

std::string DigestMixedStream(const CityDataset* dataset,
                              const bigcity::core::BigCityConfig& config,
                              uint64_t seed, int count) {
  MixedStream stream(dataset, config, seed);
  Digest digest;
  for (int i = 0; i < count; ++i) digest.Request(stream.Next());
  return digest.Hex();
}

// --- Training schedule -------------------------------------------------------

bigcity::train::TrainConfig TrainSchedule(uint64_t seed, bool smoke) {
  bigcity::train::TrainConfig schedule;
  schedule.stage1_epochs = 1;
  schedule.stage2_epochs = 2;
  schedule.max_stage1_sequences = smoke ? 8 : 48;
  schedule.max_task_samples = smoke ? 4 : 12;
  schedule.seed = seed;
  return schedule;
}

uint64_t RepetitionSeed(uint64_t seed, int repetition) {
  SplitMix64 rng(seed ^ 0x5452'4149'4e00'0003ull);
  uint64_t value = rng.Next();
  for (int i = 0; i < repetition; ++i) value = rng.Next();
  return value;
}

namespace {

std::vector<Task> TrainableTasks(bool has_dynamic) {
  std::vector<Task> tasks = {Task::kNextHop, Task::kTrajClassification,
                             Task::kTravelTimeEstimation, Task::kTrajRecovery};
  if (has_dynamic) {
    tasks.insert(tasks.end(), {Task::kTrafficOneStep, Task::kTrafficMultiStep,
                               Task::kTrafficImputation});
  }
  return tasks;
}

int64_t Batches(int64_t items, int batch_size) {
  return (items + batch_size - 1) / batch_size;
}

}  // namespace

ScheduleSize SizeOfSchedule(const CityDataset& dataset,
                            const bigcity::train::TrainConfig& schedule) {
  const bool has_dynamic = dataset.config().has_dynamic_features;
  const auto& train = dataset.train();
  auto eligible = [&](int min_length) {
    int64_t count = 0;
    for (const Trajectory& trip : train) count += trip.length() >= min_length;
    return count;
  };
  // Stage 1: clipped trajectories of >= 4 points up to the cap, plus a
  // third of the cap in traffic windows.
  const int64_t stage1 =
      std::min<int64_t>(schedule.max_stage1_sequences, eligible(4)) +
      (has_dynamic ? schedule.max_stage1_sequences / 3 : 0);
  // Stage 2: every trainable task fills its budget from two passes over
  // the training split (traffic tasks get twice the cap). Recovery skips a
  // draw that masks nothing, so it needs headroom to fill deterministically.
  const std::vector<Task> tasks = schedule.tasks.empty()
                                      ? TrainableTasks(has_dynamic)
                                      : schedule.tasks;
  int64_t stage2 = 0;
  for (Task task : tasks) {
    const bool traffic = task == Task::kTrafficOneStep ||
                         task == Task::kTrafficMultiStep ||
                         task == Task::kTrafficImputation;
    const int64_t budget = (traffic ? 2 : 1) * schedule.max_task_samples;
    if (traffic) {
      stage2 += budget;
      continue;
    }
    const int64_t available =
        2 * eligible(task == Task::kTrajRecovery ? 6 : 4);
    BIGCITY_CHECK(task != Task::kTrajRecovery || available >= 2 * budget)
        << "recovery budget " << budget << " lacks headroom";
    stage2 += std::min(budget, available);
  }
  const int batch = schedule.batch_size;
  ScheduleSize size;
  size.sequences =
      schedule.stage1_epochs * stage1 + schedule.stage2_epochs * stage2;
  size.steps = schedule.stage1_epochs * Batches(stage1, batch) +
               schedule.stage2_epochs * Batches(stage2, batch);
  return size;
}

std::string DigestTrainSchedule(const CityDataset& dataset,
                                const bigcity::train::TrainConfig& schedule) {
  Digest digest;
  for (const Trajectory& trip : dataset.train()) digest.Trajectory(trip);
  const auto& traffic = dataset.traffic();
  for (int slice = 0; slice < traffic.num_slices(); ++slice) {
    for (int segment = 0; segment < traffic.num_segments(); ++segment) {
      for (int channel = 0; channel < bigcity::data::kTrafficChannels;
           ++channel) {
        digest.Real(traffic.Get(slice, segment, channel));
      }
    }
  }
  digest.Int(schedule.pretrain_lm_epochs);
  digest.Int(schedule.stage1_epochs);
  digest.Int(schedule.stage2_epochs);
  digest.Int(schedule.batch_size);
  digest.Int(schedule.max_stage1_sequences);
  digest.Int(schedule.max_task_samples);
  digest.Real(schedule.stage1_mask_fraction);
  digest.Real(schedule.recovery_train_mask);
  digest.Real(schedule.imputation_mask);
  for (int i = 0; i < kLossRepetitions; ++i) {
    digest.Int(static_cast<int64_t>(RepetitionSeed(schedule.seed, i)));
  }
  return digest.Hex();
}

}  // namespace perfbench
