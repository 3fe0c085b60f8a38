// Test helper: corrupts a chunk in a disk chunk store's files the way a
// faulty or malicious donor would (paper §IV.C), without going through the
// store's API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "common/bytes.h"

namespace stdchk {

// Finds `chunk`'s bytes in the regular files under `dir` and inverts the
// middle one in place. Returns false unless the bytes occur exactly once.
// Files are searched as uint8_t: a char search would never match payload
// bytes >= 0x80.
inline bool FlipStoredByte(const std::filesystem::path& dir, ByteSpan chunk) {
  std::filesystem::path found_in;
  std::uintmax_t found_at = 0;
  int found = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
    auto at = file.begin();
    while ((at = std::search(at, file.end(), chunk.begin(), chunk.end())) !=
           file.end()) {
      ++found;
      found_in = entry.path();
      found_at = static_cast<std::uintmax_t>(at - file.begin());
      ++at;
    }
  }
  if (found != 1) return false;
  std::fstream f(found_in, std::ios::in | std::ios::out | std::ios::binary);
  const auto pos = static_cast<std::streamoff>(found_at + chunk.size() / 2);
  char byte = 0;
  f.seekg(pos);
  f.read(&byte, 1);
  byte = static_cast<char>(~static_cast<unsigned char>(byte));
  f.seekp(pos);
  f.write(&byte, 1);
  return static_cast<bool>(f);
}

}  // namespace stdchk
