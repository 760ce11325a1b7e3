// Distributed matrix transpose — the workload class the paper's
// introduction motivates (complete exchange is the communication
// kernel of array transposition).
//
//   ./matrix_transpose [--dims=12,12] [--tile=3]
//
// A global (N*tile) x (N*tile) matrix is row-block distributed over the
// N nodes of the torus: node p owns rows [p*tile, (p+1)*tile). The
// transpose is one all-to-all personalized exchange: the block node p
// must send node q is the tile*tile submatrix at (rows of p) x (cols
// of q). We run the Suh-Shin schedule over real double payloads on the
// step kernel (exchange_payloads_pooled), reassemble, and verify against
// a straightforward serial transpose.
#include <iostream>
#include <vector>

#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace torex;
  try {
    const CliFlags flags = CliFlags::parse(argc, argv, {"dims", "tile"});
    const auto dims64 = flags.get_int_list("dims", {12, 12});
    const std::int64_t tile = flags.get_int("tile", 3);
    std::vector<std::int32_t> dims(dims64.begin(), dims64.end());

    const TorusShape shape(dims);
    const SuhShinAape algo(shape);
    const Rank N = shape.num_nodes();
    const std::int64_t M = N * tile;
    std::cout << "transposing a " << M << "x" << M << " matrix distributed over a "
              << shape.to_string() << " torus (" << tile << "x" << tile
              << " tiles, one exchange)\n";

    // Global matrix A[i][j] = i * M + j, row-block distributed.
    auto element = [&](std::int64_t i, std::int64_t j) {
      return static_cast<double>(i * M + j);
    };

    // Build rows: node p's payload for node q is the tile x tile
    // submatrix A[p*tile .. , q*tile ..], row-major.
    using Tile = std::vector<double>;
    std::vector<std::vector<Tile>> rows(static_cast<std::size_t>(N));
    for (Rank p = 0; p < N; ++p) {
      auto& row = rows[static_cast<std::size_t>(p)];
      row.reserve(static_cast<std::size_t>(N));
      for (Rank q = 0; q < N; ++q) {
        Tile t(static_cast<std::size_t>(tile * tile));
        for (std::int64_t i = 0; i < tile; ++i) {
          for (std::int64_t j = 0; j < tile; ++j) {
            t[static_cast<std::size_t>(i * tile + j)] = element(p * tile + i, q * tile + j);
          }
        }
        row.push_back(std::move(t));
      }
    }

    // One complete exchange: recv[q][p] is the tile node p sent node q.
    const auto recv = exchange_payloads_pooled(algo, StepProgram(algo), std::move(rows));

    // Reassemble: node q holds, from each p, the tile
    // A[p*tile.., q*tile..]. Its transposed row block is
    // B[q*tile + i][j] = A[j][q*tile + i].
    std::int64_t errors = 0;
    for (Rank q = 0; q < N; ++q) {
      std::vector<double> block(static_cast<std::size_t>(tile * M));
      for (Rank p = 0; p < N; ++p) {
        const Tile& t = recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)];
        for (std::int64_t i = 0; i < tile; ++i) {
          for (std::int64_t j = 0; j < tile; ++j) {
            // Local tile transpose while scattering into the row block.
            block[static_cast<std::size_t>(j * M + p * tile + i)] =
                t[static_cast<std::size_t>(i * tile + j)];
          }
        }
      }
      for (std::int64_t i = 0; i < tile; ++i) {
        for (std::int64_t j = 0; j < M; ++j) {
          const double expected = element(j, q * tile + i);  // A^T[q*tile+i][j]
          if (block[static_cast<std::size_t>(i * M + j)] != expected) ++errors;
        }
      }
    }

    std::cout << (errors == 0 ? "transpose verified: every element of A^T in place\n"
                              : "TRANSPOSE FAILED\n");
    std::cout << "schedule: " << algo.total_steps() << " communication steps for " << N
              << " nodes (direct exchange would need " << N - 1 << ")\n";
    return errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
