// The provenance record the benches write into their JSON: git describe
// of the source tree, build type, compiler, CPU model, nproc and the
// CRC-32 backend, so a committed BENCH_*.json says what produced it.
//
// A bench that includes this header is built with TOREX_SOURCE_DIR and
// TOREX_BUILD_TYPE defined (bench/CMakeLists.txt).
#pragma once

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "util/crc32.hpp"

namespace torex::bench {

/// First line a shell command prints ("unknown" when it prints nothing).
inline std::string command_line(const std::string& command) {
  std::string out;
  if (FILE* pipe = ::popen(command.c_str(), "r")) {
    std::array<char, 256> buf{};
    if (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) out = buf.data();
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// The CPU model from /proc/cpuinfo ("unknown" elsewhere).
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t first = line.find_first_not_of(' ', colon + 1);
    return first == std::string::npos ? "unknown" : line.substr(first);
  }
  return "unknown";
}

/// Escapes a string for a JSON literal.
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The provenance record as one JSON object.
inline std::string provenance_json() {
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const std::string describe =
      command_line("git -C '" TOREX_SOURCE_DIR "' describe --always --dirty 2>/dev/null");
  return "{\"git_describe\": " + json_string(describe) +
         ", \"build_type\": " + json_string(TOREX_BUILD_TYPE) +
         ", \"compiler\": " + json_string(std::string("g++ ") + __VERSION__) +
         ", \"cpu_model\": " + json_string(cpu_model()) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"crc32_backend\": " + json_string(crc32_backend_name()) + "}";
}

}  // namespace torex::bench
