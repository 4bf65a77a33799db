#include "fuzz/corpus.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <sstream>

#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/strings.hpp"

namespace ac::fuzz {

namespace {

constexpr const char* kMagic = "ACFZ1";

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::string corpus_entry_to_string(const CorpusEntry& e) {
  std::ostringstream os;
  os << kMagic << '\n';
  os << "app: " << e.app << '\n';
  os << "kind: " << e.kind << '\n';
  os << "codec: " << e.codec << '\n';
  os << "scale: " << e.scale << '\n';
  os << "seed: " << e.seed << '\n';
  if (!e.fault.empty()) os << "fault: " << e.fault << '\n';
  if (!e.outcome.empty()) os << "outcome: " << e.outcome << '\n';
  if (!e.detail.empty()) os << "detail: " << e.detail << '\n';
  for (const Mutation& m : e.mutations) os << "mutation: " << mutation_str(m) << '\n';
  return os.str();
}

CorpusEntry corpus_entry_from_string(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || trim(line) != kMagic) {
    throw Error("corpus: bad magic (expected ACFZ1 header line)");
  }
  CorpusEntry e;
  e.app.clear();
  e.kind.clear();
  e.codec.clear();
  while (std::getline(is, line)) {
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      throw Error("corpus: malformed line '" + line + "' (expected key: value)");
    }
    const std::string key = trim(line.substr(0, colon));
    const std::string val = trim(line.substr(colon + 1));
    try {
      if (key == "app") e.app = val;
      else if (key == "kind") e.kind = val;
      else if (key == "codec") e.codec = val;
      else if (key == "scale") e.scale = std::stoi(val);
      else if (key == "seed") e.seed = std::stoull(val);
      else if (key == "fault") e.fault = val;
      else if (key == "outcome") e.outcome = val;
      else if (key == "detail") e.detail = val;
      else if (key == "mutation") e.mutations.push_back(parse_mutation(val));
      else throw Error("corpus: unknown key '" + key + "'");
    } catch (const std::invalid_argument&) {
      throw Error("corpus: bad value for '" + key + "': " + val);
    } catch (const std::out_of_range&) {
      throw Error("corpus: bad value for '" + key + "': " + val);
    }
  }
  if (e.app.empty() || e.kind.empty()) throw Error("corpus: entry missing app/kind");
  if (e.codec.empty()) e.codec = "raw";
  return e;
}

CorpusEntry load_corpus_entry(const std::string& path) {
  const std::string text = read_file_bytes(path);
  try {
    return corpus_entry_from_string(text);
  } catch (const Error& e) {
    throw Error(std::string(e.what()) + " (" + path + ")");
  }
}

std::string save_corpus_entry(const CorpusEntry& e, const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string body = corpus_entry_to_string(e);
  std::string app_lc = e.app;
  std::transform(app_lc.begin(), app_lc.end(), app_lc.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  const std::string path =
      dir + "/" + app_lc + "-" + e.kind + "-" + strf("%08x", crc32(body.data(), body.size())) +
      ".acfz";
  write_file(path, body);
  return path;
}

std::vector<std::string> list_corpus(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".acfz") out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ac::fuzz
