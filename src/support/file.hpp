// Whole-file I/O: read a file into a string, write a string out as a file.
// Every report, profile, metrics dump, corpus entry and bench JSON the tools
// write goes through write_file, so a failed write is never reported as
// success.
#pragma once

#include <string>
#include <string_view>

namespace ac {

/// Slurp a regular file. Throws ac::Error when `path` cannot be opened, is
/// not a regular file (a directory, a pipe), or the read comes up short.
std::string read_file_bytes(const std::string& path);

/// Create or truncate `path` and write `bytes` to it. Throws ac::Error when
/// the open, the write or the close fails; the close matters, because a small
/// write to a full disk only fails when the stdio buffer is flushed there.
void write_file(const std::string& path, std::string_view bytes);

}  // namespace ac
