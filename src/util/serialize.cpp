#include "src/util/serialize.hpp"

#include <filesystem>
#include <system_error>

namespace rps::ser {

FileReader::FileReader(const std::string& path) {
  // file_size fails on anything but a regular file: a directory opens
  // with fopen and would report a bogus size through fseek/ftell.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) return;
  f_ = std::fopen(path.c_str(), "rb");
  ok_ = f_ != nullptr;
  remaining_ = ok_ ? static_cast<std::uint64_t>(size) : 0;
}

FileReader::~FileReader() {
  if (f_ != nullptr) std::fclose(f_);
}

std::vector<std::uint8_t> FileReader::take(std::uint64_t n) {
  if (!ok_ || n > remaining_) {
    ok_ = false;
    return {};
  }
  std::vector<std::uint8_t> out(static_cast<std::size_t>(n));
  if (!read(out.data(), out.size())) return {};
  return out;
}

std::uint64_t FileReader::u64() {
  std::uint8_t raw[8] = {};
  const bool got = read(raw, sizeof raw);
  return Reader(raw, got ? sizeof raw : 0).u64();
}

bool FileReader::read(void* out, std::size_t n) {
  if (!ok_ || n > remaining_ || (n != 0 && std::fread(out, 1, n, f_) != n)) {
    ok_ = false;
    return false;
  }
  remaining_ -= n;
  return true;
}

bool write_file(const std::string& path,
                std::initializer_list<std::span<const std::uint8_t>> parts) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = true;
  for (const std::span<const std::uint8_t> part : parts) {
    if (!part.empty() && std::fwrite(part.data(), 1, part.size(), f) != part.size()) {
      ok = false;
    }
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace rps::ser
