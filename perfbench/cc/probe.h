// Outside-in checks and per-layer timings on a core::BigCityModel, made
// only through the model's public calls.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/bigcity_model.h"
#include "ledger.h"
#include "serve/request.h"
#include "util/status.h"

namespace perfbench {

/// The model entry point the server's dispatch uses for `request.task`:
/// the validated Try* method with the request's fields.
bigcity::util::Result<bigcity::nn::Tensor> RunReference(
    bigcity::core::BigCityModel* model, const bigcity::serve::Request& request);

/// One served output kept for the parity check.
struct ServedOutput {
  bigcity::serve::Request request;
  std::vector<int64_t> shape;
  std::vector<float> values;
};
ServedOutput KeepOutput(const bigcity::serve::Request& request,
                        const bigcity::nn::Tensor& output);

/// Checks every kept output is byte-identical to RunReference on
/// `reference` (DESIGN.md §4.14's parity contract). Returns "" when all
/// match, otherwise a message naming the first mismatch.
std::string CheckParity(bigcity::core::BigCityModel* reference,
                        const std::vector<ServedOutput>& outputs);

/// Mean cross-entropy of the next-hop logits [1, I] in outputs[indices[k]]
/// against targets[k].
double NextHopLoss(const std::vector<ServedOutput>& outputs,
                   const std::vector<size_t>& indices,
                   const std::vector<int>& targets);

/// Times the tokenizer, backbone, heads and every task entry point from
/// outside, replaying `prefixes` (next-hop trajectories) and `requests`
/// (at least one per task) in no-grad mode. Before timing, checks that
/// tokenizer -> prompt -> backbone -> heads composed by hand (single,
/// batched and KV-decoded) equals the model's next-hop entry point bit
/// for bit. Adds tokenizer.*, backbone.*, heads.ms and model.*_ms to
/// `ledger`; returns "" or a message naming the failed check.
std::string ProbeLayers(bigcity::core::BigCityModel* model,
                        const std::vector<bigcity::data::Trajectory>& prefixes,
                        const std::vector<bigcity::serve::Request>& requests,
                        Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
