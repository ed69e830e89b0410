// Seeded input generators for the benchmark workloads. Everything a run
// feeds the program is derived here from the workload seed, with the
// benchmark's own RNG, so a seed names the same inputs no matter how the
// program's RNG or sampling code changes. Each generator has a digest that
// a run prints, so two runs with one seed provably saw one input stream.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "data/dataset.h"
#include "serve/request.h"
#include "train/trainer.h"

namespace perfbench {

/// SplitMix64 (Steele, Lea and Flood 2014): tiny, seedable, and stable.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next();
  /// Uniform integer in [lo, hi] (inclusive).
  int Uniform(int lo, int hi);
  /// Uniform double in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

/// FNV-1a 64-bit digest over a canonical serialisation of the inputs.
class Digest {
 public:
  void Bytes(const void* data, size_t size);
  void Int(int64_t value) { Bytes(&value, sizeof value); }
  void Real(double value) { Bytes(&value, sizeof value); }
  void Trajectory(const bigcity::data::Trajectory& trajectory);
  void Request(const bigcity::serve::Request& request);
  std::string Hex() const;

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// One autoregressive walk over a test trajectory: requests carry the
/// prefixes 2..length of `dataset.test()[trajectory]`, one point per hop.
struct Walk {
  int trajectory = 0;
  int length = 0;
};

/// `count` walks drawn as seeded permutation cycles over the test split.
/// Walk lengths are capped at `max_length` (the model's token limit), so
/// no prefix is subsampled and every hop can extend its KV session.
std::vector<Walk> MakeWalkPlan(const bigcity::data::CityDataset& dataset,
                               int max_length, uint64_t seed, int count);

/// The next-hop request for the first `prefix` points of `walk`.
bigcity::serve::Request WalkRequest(const bigcity::data::CityDataset& dataset,
                                    const Walk& walk, int prefix);

std::string DigestWalkPlan(const bigcity::data::CityDataset& dataset,
                           const std::vector<Walk>& plan);

/// Endless seeded mix of all eight tasks. Trajectory tasks draw from every
/// dataset split with random prefix lengths; traffic tasks draw segments
/// and windows over every time slice. Request ids count from 0.
class MixedStream {
 public:
  MixedStream(const bigcity::data::CityDataset* dataset,
              const bigcity::core::BigCityConfig& config, uint64_t seed);

  /// The next request. For a next-hop request whose prefix stops short of
  /// its source trajectory, `*next_segment` receives the true next segment
  /// (otherwise -1).
  bigcity::serve::Request Next(int* next_segment = nullptr);

 private:
  const bigcity::data::Trajectory& DrawTrajectory(int min_length);

  const bigcity::data::CityDataset* dataset_;
  bigcity::core::BigCityConfig config_;
  SplitMix64 rng_;
  std::vector<const bigcity::data::Trajectory*> trips_;
  uint64_t next_id_ = 0;
};

/// Digest of the first `count` requests of the stream for `seed`.
std::string DigestMixedStream(const bigcity::data::CityDataset* dataset,
                              const bigcity::core::BigCityConfig& config,
                              uint64_t seed, int count);

/// The training schedule one timed repetition runs: the paper's two
/// stages with fixed epochs and sample caps. The seed drives the
/// trainer's draws (stage-1 masks and order, stage-2 samples).
bigcity::train::TrainConfig TrainSchedule(uint64_t seed, bool smoke);

/// The trainer seed of repetition `repetition` of a run with `seed`: each
/// repetition draws its own schedule, so a run's figures average over
/// several draws rather than hinge on one.
uint64_t RepetitionSeed(uint64_t seed, int repetition);

/// Repetitions every train run completes whatever the time budget; the
/// reported loss is their mean, the same in every run with one seed.
inline constexpr int kLossRepetitions = 5;

/// Sequences and optimizer steps one repetition of `schedule` processes
/// on `dataset`, derived from the schedule's caps the way the trainer
/// builds its stage-1 pool and stage-2 sample set.
struct ScheduleSize {
  int64_t sequences = 0;
  int64_t steps = 0;
};
ScheduleSize SizeOfSchedule(const bigcity::data::CityDataset& dataset,
                            const bigcity::train::TrainConfig& schedule);

/// Digest of the dataset the trainer reads plus the schedule and its seed.
std::string DigestTrainSchedule(const bigcity::data::CityDataset& dataset,
                                const bigcity::train::TrainConfig& schedule);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
