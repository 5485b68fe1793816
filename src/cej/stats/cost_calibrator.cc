#include "cej/stats/cost_calibrator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "cej/common/serde.h"

namespace cej::stats {
namespace {

constexpr uint32_t kCalibrationMagic = 0x434a4543;  // "CEJC"
// Envelopes of any other layout version are rejected (recalibration is
// cheap, silent field misinterpretation is not).
constexpr uint32_t kCalibrationVersion = 3;

constexpr double kThetaFloor = 1e-6;
constexpr double kThetaCeil = 1e12;
constexpr double kEtaFloor = 0.05;
constexpr double kEtaAlpha = 0.2;  // EWMA step for the scaling efficiency.
// Ridge pull toward the seed (absolute, in normal-equation units —
// negligible once a coefficient has real observations).
constexpr double kRidge = 1.0;

// The persisted state, serialized as one trivially-copyable block guarded
// by an FNV-1a checksum (corrupt envelopes must be rejected, not loaded).
struct CalibrationEnvelopeV3 {
  // Seed CostParams.
  double seed_access, seed_model, seed_compute, seed_tensor_efficiency;
  double seed_probe_base, seed_probe_per_candidate;
  uint64_t seed_probe_ef;
  double seed_parallel_efficiency;
  // Learned state.
  double theta[4];
  double normal[16];
  double rhs[4];
  double eta, eta_weight;
  uint64_t calibratable, refits, observations;
};
static_assert(std::is_trivially_copyable_v<CalibrationEnvelopeV3>);

bool AllFinite(const double* values, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (!std::isfinite(values[i])) return false;
  }
  return true;
}

bool EnvelopeFinite(const CalibrationEnvelopeV3& env) {
  // Every floating-point field by NAME — no pointer walks over struct
  // layout, so reordering CalibrationEnvelopeV3 cannot silently shrink
  // the validation window.
  for (double v :
       {env.seed_access, env.seed_model, env.seed_compute,
        env.seed_tensor_efficiency, env.seed_probe_base,
        env.seed_probe_per_candidate, env.seed_parallel_efficiency, env.eta,
        env.eta_weight}) {
    if (!std::isfinite(v)) return false;
  }
  return AllFinite(env.theta, 4) && AllFinite(env.normal, 16) &&
         AllFinite(env.rhs, 4);
}

uint64_t Fnv1a(const void* data, size_t bytes) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

// Solves the ridge-regularized 4x4 normal equations by Gaussian
// elimination with partial pivoting. `a` and `b` are destroyed.
void SolveNormal(double a[4][4], double b[4], double x[4]) {
  constexpr size_t n = 4;
  size_t perm[n] = {0, 1, 2, 3};
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t row = col + 1; row < n; ++row) {
      if (std::fabs(a[perm[row]][col]) > std::fabs(a[perm[pivot]][col])) {
        pivot = row;
      }
    }
    std::swap(perm[col], perm[pivot]);
    const double diag = a[perm[col]][col];
    if (std::fabs(diag) < 1e-30) continue;  // Ridge keeps this unreachable.
    for (size_t row = col + 1; row < n; ++row) {
      const double factor = a[perm[row]][col] / diag;
      if (factor == 0.0) continue;
      for (size_t k = col; k < n; ++k) {
        a[perm[row]][k] -= factor * a[perm[col]][k];
      }
      b[perm[row]] -= factor * b[perm[col]];
    }
  }
  for (size_t i = n; i-- > 0;) {
    double sum = b[perm[i]];
    for (size_t k = i + 1; k < n; ++k) sum -= a[perm[i]][k] * x[k];
    const double diag = a[perm[i]][i];
    x[i] = std::fabs(diag) < 1e-30 ? 0.0 : sum / diag;
  }
}

void ThetaFromParams(const join::CostParams& p, double theta[4]) {
  const double pair = p.access + p.compute;
  theta[0] = p.model;
  theta[1] = pair;
  theta[2] = pair * p.tensor_efficiency;
  theta[3] = pair * p.probe_per_candidate;
}

}  // namespace

CostCalibrator::CostCalibrator(Options options)
    : options_(std::move(options)),
      current_(std::make_shared<const join::CostParams>(options_.seed)) {
  ThetaFromParams(options_.seed, theta_seed_);
  std::memcpy(theta_, theta_seed_, sizeof(theta_));
  eta_ = std::clamp(options_.seed.parallel_efficiency, kEtaFloor, 1.0);
}

std::shared_ptr<const join::CostParams> CostCalibrator::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

join::CostParams CostCalibrator::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.seed;
}

void CostCalibrator::Record(Observation obs) {
  const bool calibratable =
      obs.features.calibratable && obs.measured_ns > 0.0 &&
      std::isfinite(obs.measured_ns) && std::isfinite(obs.estimated_ns);
  const bool explored = obs.explored;
  const double estimated = obs.estimated_ns;
  const double measured = obs.measured_ns;
  const Observation copy_for_fit = obs;  // The ring consumes `obs`.
  workload_stats_.Record(std::move(obs));

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.observations;
  if (explored) {
    ++stats_.explorations;
    // The overhead an explored run cost over the price-ranked choice it
    // displaced (its runner_up is that displaced best quote). A negative
    // overrun — exploration found a genuinely cheaper operator — costs
    // nothing against the budget.
    if (copy_for_fit.runner_up_ns > 0.0 &&
        std::isfinite(copy_for_fit.runner_up_ns) && measured > 0.0) {
      stats_.exploration_overhead_ns +=
          std::max(0.0, measured - copy_for_fit.runner_up_ns);
    }
  }
  if (estimated > 0.0 && measured > 0.0 && std::isfinite(estimated)) {
    window_abs_log_error_ += std::fabs(std::log(estimated / measured));
    ++window_count_;
  }
  if (!calibratable) return;
  AccumulateLocked(copy_for_fit);
  ++stats_.calibratable;
  ++calibratable_;
  ++since_refit_;
  if (options_.refit_interval > 0 &&
      since_refit_ >= options_.refit_interval) {
    RefitLocked();
  }
}

void CostCalibrator::AccumulateLocked(const Observation& obs) {
  const double phi[kCoeffs] = {obs.features.model, obs.features.pair,
                               obs.features.sweep, obs.features.probe};
  const double y = obs.measured_ns - obs.features.fixed;
  const double decay = std::clamp(options_.decay, 0.0, 1.0);
  for (size_t i = 0; i < kCoeffs; ++i) {
    for (size_t j = 0; j < kCoeffs; ++j) {
      normal_[i][j] = normal_[i][j] * decay + phi[i] * phi[j];
    }
    rhs_[i] = rhs_[i] * decay + phi[i] * y;
  }

  // Pool-scaling efficiency: reconstruct the serial work behind a parallel
  // observation with the CURRENT theta and ask what speedup reality
  // realized. Needs at least one refit first — before that, theta is the
  // (possibly skewed) seed and the ratio would be noise, not signal.
  if (obs.parallel_workers > 1 && stats_.refits > 0 &&
      obs.speedup_estimated >= 1.0) {
    const double parallel_ns_serial =
        (obs.features.sweep * theta_[2] + obs.features.probe * theta_[3]) *
        obs.speedup_estimated;
    const double measured_parallel =
        obs.measured_ns - obs.features.fixed -
        obs.features.model * theta_[0] - obs.features.pair * theta_[1];
    if (parallel_ns_serial > 0.0 && measured_parallel > 0.0) {
      const double workers = static_cast<double>(obs.parallel_workers);
      const double realized =
          std::clamp(parallel_ns_serial / measured_parallel, 1.0, workers);
      const double eta_hat =
          std::clamp((realized - 1.0) / (workers - 1.0), kEtaFloor, 1.0);
      eta_ = eta_weight_ == 0.0 ? eta_hat
                                : eta_ + kEtaAlpha * (eta_hat - eta_);
      eta_weight_ += 1.0;
    }
  }
}

void CostCalibrator::Refit() {
  std::lock_guard<std::mutex> lock(mu_);
  RefitLocked();
}

void CostCalibrator::RefitLocked() {
  // Nothing observed, nothing to fit: publishing the seed as a "refit"
  // would also arm the eta-EWMA gate below (stats_.refits > 0) with an
  // unvalidated theta — exactly the noise that gate exists to keep out.
  if (calibratable_ == 0) return;
  double a[kCoeffs][kCoeffs];
  double b[kCoeffs];
  for (size_t i = 0; i < kCoeffs; ++i) {
    for (size_t j = 0; j < kCoeffs; ++j) a[i][j] = normal_[i][j];
    a[i][i] += kRidge;
    b[i] = rhs_[i] + kRidge * theta_seed_[i];
  }
  double theta[kCoeffs];
  SolveNormal(a, b, theta);
  for (size_t i = 0; i < kCoeffs; ++i) {
    if (!std::isfinite(theta[i])) theta[i] = theta_seed_[i];
    theta_[i] = std::clamp(theta[i], kThetaFloor, kThetaCeil);
  }

  current_ = std::make_shared<const join::CostParams>(
      PublishedFromThetaLocked());
  ++stats_.refits;

  RefitRecord record;
  record.refit_number = stats_.refits;
  record.observations = calibratable_;
  record.mean_abs_log_error =
      window_count_ == 0
          ? (refit_history_.empty()
                 ? 0.0
                 : refit_history_.back().mean_abs_log_error)
          : window_abs_log_error_ / static_cast<double>(window_count_);
  record.published = *current_;
  stats_.last_mean_abs_log_error = record.mean_abs_log_error;
  refit_history_.push_back(record);
  window_abs_log_error_ = 0.0;
  window_count_ = 0;
  since_refit_ = 0;
}

join::CostParams CostCalibrator::PublishedFromThetaLocked() const {
  join::CostParams p = options_.seed;
  const double pair = std::max(theta_[1], kThetaFloor);
  // Split the fitted per-pair cost along the seed's access:compute ratio
  // so A + C == theta_P exactly and the linear scan term scales with it.
  const double seed_pair = options_.seed.access + options_.seed.compute;
  const double access_share =
      seed_pair > 0.0 ? options_.seed.access / seed_pair : 0.2;
  p.access = pair * access_share;
  p.compute = pair - p.access;
  p.model = theta_[0];
  p.tensor_efficiency = std::clamp(theta_[2] / pair, 1e-4, 1e3);
  p.probe_per_candidate = theta_[3] / pair;
  p.parallel_efficiency = eta_weight_ > 0.0
                              ? std::clamp(eta_, kEtaFloor, 1.0)
                              : options_.seed.parallel_efficiency;
  return p;
}

void CostCalibrator::ResetSeed(const join::CostParams& seed) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.seed = seed;
  ThetaFromParams(seed, theta_seed_);
  ResetLearningLocked();
}

void CostCalibrator::ResetLearningLocked() {
  std::memcpy(theta_, theta_seed_, sizeof(theta_));
  std::memset(normal_, 0, sizeof(normal_));
  std::memset(rhs_, 0, sizeof(rhs_));
  eta_ = std::clamp(options_.seed.parallel_efficiency, kEtaFloor, 1.0);
  eta_weight_ = 0.0;
  calibratable_ = 0;
  since_refit_ = 0;
  window_abs_log_error_ = 0.0;
  window_count_ = 0;
  current_ = std::make_shared<const join::CostParams>(options_.seed);
}

uint64_t CostCalibrator::ObservationCount(std::string_view op) const {
  return workload_stats_.RecordedCount(op);
}

bool CostCalibrator::ExplorationAllowed() const {
  if (options_.explore_budget_ns <= 0.0) return true;
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.exploration_overhead_ns < options_.explore_budget_ns;
}

double CostCalibrator::exploration_overhead_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.exploration_overhead_ns;
}

std::vector<CostCalibrator::RefitRecord> CostCalibrator::refit_history()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return refit_history_;
}

CostCalibrator::Stats CostCalibrator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status CostCalibrator::Save(const std::string& path) const {
  CalibrationEnvelopeV3 env;
  std::memset(&env, 0, sizeof(env));
  {
    std::lock_guard<std::mutex> lock(mu_);
    const join::CostParams& seed = options_.seed;
    env.seed_access = seed.access;
    env.seed_model = seed.model;
    env.seed_compute = seed.compute;
    env.seed_tensor_efficiency = seed.tensor_efficiency;
    env.seed_probe_base = seed.probe_base;
    env.seed_probe_per_candidate = seed.probe_per_candidate;
    env.seed_probe_ef = seed.probe_ef;
    env.seed_parallel_efficiency = seed.parallel_efficiency;
    for (size_t i = 0; i < kCoeffs; ++i) {
      env.theta[i] = theta_[i];
      env.rhs[i] = rhs_[i];
      for (size_t j = 0; j < kCoeffs; ++j) {
        env.normal[i * kCoeffs + j] = normal_[i][j];
      }
    }
    env.eta = eta_;
    env.eta_weight = eta_weight_;
    env.calibratable = calibratable_;
    env.refits = stats_.refits;
    env.observations = stats_.observations;
  }
  CEJ_ASSIGN_OR_RETURN(serde::Writer writer, serde::Writer::Open(path));
  CEJ_RETURN_IF_ERROR(writer.WritePod(kCalibrationMagic));
  CEJ_RETURN_IF_ERROR(writer.WritePod(kCalibrationVersion));
  CEJ_RETURN_IF_ERROR(writer.WritePod(env));
  return writer.WritePod(Fnv1a(&env, sizeof(env)));
}

Status CostCalibrator::Load(const std::string& path) {
  CEJ_ASSIGN_OR_RETURN(serde::Reader reader, serde::Reader::Open(path));
  uint32_t magic = 0, version = 0;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&magic));
  if (magic != kCalibrationMagic) {
    return Status::InvalidArgument(
        "LoadCalibration: '" + path + "' is not a calibration envelope");
  }
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&version));
  if (version != kCalibrationVersion) {
    return Status::InvalidArgument(
        "LoadCalibration: unsupported envelope version " +
        std::to_string(version));
  }
  CalibrationEnvelopeV3 env;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&env));
  uint64_t checksum = 0;
  CEJ_RETURN_IF_ERROR(reader.ReadPod(&checksum));
  if (checksum != Fnv1a(&env, sizeof(env))) {
    return Status::InvalidArgument(
        "LoadCalibration: '" + path + "' failed its checksum (corrupt)");
  }
  if (!EnvelopeFinite(env)) {
    return Status::InvalidArgument(
        "LoadCalibration: '" + path + "' carries non-finite state");
  }

  std::lock_guard<std::mutex> lock(mu_);
  join::CostParams seed;
  seed.access = env.seed_access;
  seed.model = env.seed_model;
  seed.compute = env.seed_compute;
  seed.tensor_efficiency = env.seed_tensor_efficiency;
  seed.probe_base = env.seed_probe_base;
  seed.probe_per_candidate = env.seed_probe_per_candidate;
  seed.probe_ef = static_cast<size_t>(env.seed_probe_ef);
  seed.parallel_efficiency = env.seed_parallel_efficiency;
  options_.seed = seed;
  ThetaFromParams(seed, theta_seed_);
  for (size_t i = 0; i < kCoeffs; ++i) {
    theta_[i] = env.theta[i];
    rhs_[i] = env.rhs[i];
    for (size_t j = 0; j < kCoeffs; ++j) {
      normal_[i][j] = env.normal[i * kCoeffs + j];
    }
  }
  eta_ = env.eta;
  eta_weight_ = env.eta_weight;
  calibratable_ = env.calibratable;
  // The diagnostic surfaces must agree with the restored regression
  // state: counters come from the envelope, and everything that is NOT
  // persisted (refit records, exploration count, last window error —
  // they describe this process's history, not the regression) is reset
  // rather than left over from the calibrator's previous life.
  stats_ = Stats{};
  stats_.refits = env.refits;
  stats_.observations = env.observations;
  stats_.calibratable = env.calibratable;
  refit_history_.clear();
  since_refit_ = 0;
  window_abs_log_error_ = 0.0;
  window_count_ = 0;
  current_ = std::make_shared<const join::CostParams>(
      env.refits > 0 ? PublishedFromThetaLocked() : options_.seed);
  return Status::OK();
}

}  // namespace cej::stats
