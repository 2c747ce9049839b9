// Kernel-backend throughput check: measures the per-element throughput of
// the scalar and simd fused loops — the Gaussian contribution (the
// calibration the cost model installs into the cpu-simd profile) and the
// Epanechnikov double contribution and contribution+gradient that every
// stock device runs — prints a human table, writes the machine-readable
// BENCH_micro.json, and exits non-zero when the simd float contribution
// or the simd double Epanechnikov contribution misses the required
// speedup (>= 3x by default, at s = 256K, d = 3).
//
// On hosts without AVX2 (or with FKDE_KERNEL_BACKEND=scalar forced) the
// gates are skipped: the ratios are reported as 1x and the exit code is
// 0, so CI legs that force the scalar fallback still pass.

#include <cstdio>

#include "common/flags.h"
#include "common/table_printer.h"
#include "kde/kernel_backend.h"
#include "parallel/device.h"
#include "parallel/simd.h"

int main(int argc, char** argv) {
  using namespace fkde;

  std::int64_t rows = 262144;
  std::int64_t dims = 3;
  std::int64_t reps = 5;
  double min_speedup = 3.0;
  std::string json_path = "BENCH_micro.json";
  bool csv = false;
  FlagParser parser;
  parser.AddInt64("rows", &rows, "sample points per measurement");
  parser.AddInt64("dims", &dims, "dimensions per point");
  parser.AddInt64("reps", &reps, "timed repetitions per backend");
  parser.AddDouble("min-speedup", &min_speedup,
                   "required simd/scalar throughput ratio (0 disables)");
  parser.AddString("json", &json_path,
                   "machine-readable output path (empty disables)");
  parser.AddBool("csv", &csv, "emit CSV instead of an aligned table");
  parser.Parse(argc, argv).AbortIfError("flags");

  const bool simd_available =
      ResolveKernelBackend(KernelBackend::kSimd) == KernelBackend::kSimd;

  // Each cell is one fused loop under one backend/precision; `base` is
  // the index of the scalar cell of the same kernel and loop.
  struct Cell {
    const char* name;
    KernelType kernel;
    bool gradient;
    KernelBackend backend;
    KernelPrecision precision;
    std::size_t base;
    double ops_per_sec = 0.0;
  };
  Cell cells[] = {
      {"scalar", KernelType::kGaussian, false, KernelBackend::kScalar,
       KernelPrecision::kDouble, 0},
      {"simd-double", KernelType::kGaussian, false, KernelBackend::kSimd,
       KernelPrecision::kDouble, 0},
      {"simd-float", KernelType::kGaussian, false, KernelBackend::kSimd,
       KernelPrecision::kFloat, 0},
      {"epa-scalar", KernelType::kEpanechnikov, false, KernelBackend::kScalar,
       KernelPrecision::kDouble, 3},
      {"epa-simd-double", KernelType::kEpanechnikov, false,
       KernelBackend::kSimd, KernelPrecision::kDouble, 3},
      {"epa-grad-scalar", KernelType::kEpanechnikov, true,
       KernelBackend::kScalar, KernelPrecision::kDouble, 5},
      {"epa-grad-simd-double", KernelType::kEpanechnikov, true,
       KernelBackend::kSimd, KernelPrecision::kDouble, 5},
  };
  const std::size_t n = sizeof(cells) / sizeof(cells[0]);
  for (Cell& cell : cells) {
    const auto measure = cell.gradient
                             ? kb::MeasureFusedContributionGradThroughput
                             : kb::MeasureFusedContributionThroughput;
    cell.ops_per_sec =
        measure(cell.backend, cell.precision, cell.kernel,
                static_cast<std::size_t>(rows), static_cast<std::size_t>(dims),
                static_cast<int>(reps));
  }
  auto speedup = [&cells, simd_available](std::size_t i) {
    const Cell& base = cells[cells[i].base];
    return simd_available ? cells[i].ops_per_sec / base.ops_per_sec : 1.0;
  };

  // The gated ratios: mixed precision vs the scalar reference — the same
  // pair the cost-model calibration installs — and the bitwise-exact
  // Epanechnikov double contribution every stock device runs.
  const double ratio = speedup(2);
  const double epa_ratio = speedup(4);
  const double epa_grad_ratio = speedup(6);

  TablePrinter printer;
  printer.SetHeader(
      {"backend", "kernel", "loop", "precision", "Melem/s", "speedup"});
  for (std::size_t i = 0; i < n; ++i) {
    const Cell& cell = cells[i];
    // Without a vector body the simd rows would time the scalar loop.
    if (cell.backend == KernelBackend::kSimd && !simd_available) continue;
    printer.AddRow({cell.name, KernelName(cell.kernel),
                    cell.gradient ? "contrib+grad" : "contrib",
                    KernelPrecisionName(cell.precision),
                    TablePrinter::Num(cell.ops_per_sec * 1e-6, 4),
                    TablePrinter::Num(speedup(i), 3)});
  }
  printer.Print(csv);
  if (!simd_available) {
    std::fprintf(stderr,
                 "simd backend resolves to scalar here (no AVX2 or forced "
                 "off); speedup gates skipped\n");
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\n  \"benchmark\": \"backend_check\",\n"
                   "  \"rows\": %lld,\n  \"dims\": %lld,\n"
                   "  \"simd_available\": %s,\n  \"cells\": [\n",
                   static_cast<long long>(rows),
                   static_cast<long long>(dims),
                   simd_available ? "true" : "false");
      for (std::size_t i = 0; i < n; ++i) {
        std::fprintf(
            f,
            "    {\"backend\": \"%s\", \"kernel\": \"%s\", "
            "\"loop\": \"%s\", \"elements_per_sec\": %.6g, "
            "\"speedup\": %.6g}%s\n",
            cells[i].name, KernelName(cells[i].kernel),
            cells[i].gradient ? "contrib+grad" : "contrib",
            cells[i].ops_per_sec, speedup(i), i + 1 < n ? "," : "");
      }
      std::fprintf(f,
                   "  ],\n  \"mixed_precision_speedup\": %.6g,\n"
                   "  \"epanechnikov_double_speedup\": %.6g,\n"
                   "  \"epanechnikov_double_gradient_speedup\": %.6g\n}\n",
                   ratio, epa_ratio, epa_grad_ratio);
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    }
  }

  const bool gated = simd_available && min_speedup > 0.0;
  int status = 0;
  if (gated && ratio < min_speedup) {
    std::fprintf(stderr, "FAIL: simd float speedup %.2fx < required %.2fx\n",
                 ratio, min_speedup);
    status = 1;
  }
  if (gated && epa_ratio < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: simd double Epanechnikov speedup %.2fx < required "
                 "%.2fx\n",
                 epa_ratio, min_speedup);
    status = 1;
  }
  std::printf(
      "simd mixed-precision speedup: %.2fx, double Epanechnikov: %.2fx "
      "(gradient %.2fx) (gate: %s)\n",
      ratio, epa_ratio, epa_grad_ratio, gated ? "enforced" : "skipped");
  return status;
}
