#include "support/file.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/error.hpp"

namespace ac {

std::string read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw Error("cannot open file: " + path);
  // fopen succeeds on a directory, whose seek-to-end "size" is garbage: only
  // a regular file's size is trusted.
  struct stat st{};
  if (::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    throw Error("not a regular file: " + path);
  }
  std::string data(static_cast<std::size_t>(st.st_size), '\0');
  if (!data.empty() && std::fread(data.data(), 1, data.size(), f) != data.size()) {
    std::fclose(f);
    throw Error("short read from file: " + path);
  }
  std::fclose(f);
  return data;
}

void write_file(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw Error("cannot open " + path + " for writing: " + std::strerror(errno));
  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const int write_errno = errno;
  if (std::fclose(f) != 0 || !wrote) {
    throw Error("cannot write " + path + ": " + std::strerror(wrote ? errno : write_errno));
  }
}

}  // namespace ac
