// Distributed 2D FFT via the transpose (row-column) method — the other
// classic complete-exchange workload.
//
//   ./fft_transpose [--dims=8,8]
//
// A 2D FFT of an M x M array factors into 1-D FFTs over rows, a global
// transpose, 1-D FFTs over rows again, and a final transpose. With the
// array row-block distributed over N torus nodes, each transpose is one
// all-to-all personalized exchange — the paper's kernel. We run both
// exchanges through the Suh-Shin schedule on the step kernel
// (exchange_payloads_pooled) with complex payloads and verify the
// result against a direct O(M^4) 2-D DFT.
#include <cmath>
#include <complex>
#include <iostream>
#include <numbers>
#include <vector>

#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "util/cli.hpp"

namespace {

using Complex = std::complex<double>;

/// In-place radix-2 Cooley-Tukey FFT; `data.size()` must be a power of two.
void fft(std::vector<Complex>& data) {
  const std::size_t n = data.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex w(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex cur(1.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * cur;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        cur *= w;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace torex;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv, {"dims"});
    const auto dims64 = flags.get_int_list("dims", {8, 8});
    std::vector<std::int32_t> dims(dims64.begin(), dims64.end());
    const TorusShape shape(dims);
    const SuhShinAape algo(shape);
    const Rank N = shape.num_nodes();

    // One row per node keeps the verification DFT affordable; M = N.
    const std::int64_t M = N;
    if ((M & (M - 1)) != 0) {
      std::cerr << "node count must be a power of two for the radix-2 FFT (try --dims=8,8)\n";
      return 1;
    }
    std::cout << "2D FFT of a " << M << "x" << M << " array on a " << shape.to_string()
              << " torus (two complete exchanges)\n";

    // Input: a deterministic pseudo-random real array.
    auto input = [&](std::int64_t i, std::int64_t j) {
      return Complex(std::sin(0.37 * static_cast<double>(i) + 1.0) *
                         std::cos(0.91 * static_cast<double>(j) + 2.0),
                     0.0);
    };

    // Each node owns row p. Step 1: local row FFT.
    std::vector<std::vector<Complex>> rows(static_cast<std::size_t>(N));
    for (Rank p = 0; p < N; ++p) {
      auto& row = rows[static_cast<std::size_t>(p)];
      row.resize(static_cast<std::size_t>(M));
      for (std::int64_t j = 0; j < M; ++j) row[static_cast<std::size_t>(j)] = input(p, j);
      fft(row);
    }

    // Step 2: global transpose by complete exchange (element (p, q)
    // travels from node p to node q).
    const StepProgram program(algo);  // compiled once, replayed by both transposes
    auto transpose = [&](std::vector<std::vector<Complex>>& r) {
      r = exchange_payloads_pooled(algo, program, std::move(r));
    };
    transpose(rows);

    // Step 3: FFT over the (former) columns; step 4: transpose back.
    for (auto& row : rows) fft(row);
    transpose(rows);

    // Verify against the direct 2-D DFT at a handful of frequencies.
    std::int64_t checked = 0;
    std::int64_t errors = 0;
    for (std::int64_t u = 0; u < M; u += std::max<std::int64_t>(1, M / 4)) {
      for (std::int64_t v = 0; v < M; v += std::max<std::int64_t>(1, M / 4)) {
        Complex direct(0.0);
        for (std::int64_t i = 0; i < M; ++i) {
          for (std::int64_t j = 0; j < M; ++j) {
            const double angle = -2.0 * std::numbers::pi *
                                 (static_cast<double>(u * i) / static_cast<double>(M) +
                                  static_cast<double>(v * j) / static_cast<double>(M));
            direct += input(i, j) * Complex(std::cos(angle), std::sin(angle));
          }
        }
        const Complex ours = rows[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)];
        ++checked;
        if (std::abs(ours - direct) > 1e-6 * (1.0 + std::abs(direct))) ++errors;
      }
    }
    std::cout << (errors == 0 ? "FFT verified" : "FFT FAILED") << " against the direct DFT at "
              << checked << " frequencies\n";
    std::cout << "communication: 2 exchanges x " << algo.total_steps() << " steps\n";
    return errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
