#include "kde/variable.h"

#include <cmath>

namespace fkde {

Result<std::vector<double>> ComputeVariableScales(
    KdeEngine* engine, const VariableKdeOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must be non-null");
  }
  if (options.sensitivity < 0.0 || options.sensitivity > 1.0) {
    return Status::InvalidArgument("sensitivity must be in [0, 1]");
  }
  if (options.max_ratio < 1.0) {
    return Status::InvalidArgument("max_ratio must be >= 1");
  }
  const std::size_t s = engine->sample_size();
  const std::size_t d = engine->dims();
  Device* device = engine->device();
  // The O(s^2) pilot needs every point against every point. On a sharded
  // sample, gather the rows once onto the primary device (construction
  // time only — never the per-query path); the global-order copy also
  // makes the returned scales global-slot indexed, as SetPointScales
  // expects. Single-shard samples use their buffer directly. Both read
  // dim-major strips: coordinate j of point i at data[j * stride + i].
  DeviceBuffer<float> gathered;
  const DeviceBuffer<float>* points = &engine->sample()->buffer();
  std::size_t stride = engine->sample()->stride();
  if (engine->sample()->num_shards() > 1) {
    const std::vector<double> rows = engine->sample()->GatherRows();
    std::vector<float> staging(rows.size());
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        staging[j * s + i] = static_cast<float>(rows[i * d + j]);
      }
    }
    gathered = device->CreateBuffer<float>(staging.size());
    device->CopyToDevice(staging.data(), staging.size(), &gathered);
    points = &gathered;
    stride = s;
  }
  const std::vector<double>& h = engine->bandwidth();

  // Pilot density at each sample point: leave-one-out Gaussian product
  // KDE with the engine's current (fixed) bandwidth. One work item per
  // point; O(s) inner loop (the classic O(s^2 d) pilot pass).
  DeviceBuffer<double> densities = device->CreateBuffer<double>(s);
  {
    double inv_h[32];
    double norm = 1.0;
    constexpr double kInvSqrt2Pi = 0.3989422804014327;
    for (std::size_t j = 0; j < d; ++j) {
      inv_h[j] = 1.0 / h[j];
      norm *= kInvSqrt2Pi * inv_h[j];
    }
    std::vector<double> inv_h_vec(inv_h, inv_h + d);
    device->Launch(
        "variable_pilot_density", s, static_cast<double>(s * d) / 256.0,
        std::tuple(In(*points, 0, s, stride, d), Out(densities, 0, s)),
        [stride, s, d, norm, inv_h_vec](std::size_t begin, std::size_t end,
                                        const float* data, double* out) {
          for (std::size_t i = begin; i < end; ++i) {
            double total = 0.0;
            for (std::size_t k = 0; k < s; ++k) {
              if (k == i) continue;  // Leave-one-out.
              double exponent = 0.0;
              for (std::size_t j = 0; j < d; ++j) {
                const float* strip = data + j * stride;
                const double z = (static_cast<double>(strip[i]) -
                                  static_cast<double>(strip[k])) *
                                 inv_h_vec[j];
                exponent += z * z;
              }
              total += std::exp(-0.5 * exponent);
            }
            out[i] = norm * total / static_cast<double>(s > 1 ? s - 1 : 1);
          }
        });
  }
  std::vector<double> pilot(s);
  device->CopyToHost(densities, 0, s, pilot.data());

  // Geometric mean normalization (on log scale for stability); zero
  // densities (isolated points under a tiny pilot) floor at the smallest
  // positive density.
  double min_positive = 0.0;
  for (double f : pilot) {
    if (f > 0.0 && (min_positive == 0.0 || f < min_positive)) {
      min_positive = f;
    }
  }
  if (min_positive == 0.0) {
    return Status::FailedPrecondition(
        "pilot density vanished everywhere; bandwidth too small");
  }
  double log_sum = 0.0;
  for (double& f : pilot) {
    if (f <= 0.0) f = min_positive;
    log_sum += std::log(f);
  }
  const double log_geometric_mean = log_sum / static_cast<double>(s);

  std::vector<double> scales(s);
  for (std::size_t i = 0; i < s; ++i) {
    const double scale = std::exp(-options.sensitivity *
                                  (std::log(pilot[i]) - log_geometric_mean));
    scales[i] =
        std::clamp(scale, 1.0 / options.max_ratio, options.max_ratio);
  }
  return scales;
}

Status EnableVariableKde(KdeEngine* engine,
                         const VariableKdeOptions& options) {
  FKDE_ASSIGN_OR_RETURN(const std::vector<double> scales,
                        ComputeVariableScales(engine, options));
  return engine->SetPointScales(scales);
}

}  // namespace fkde
