#include "base/history.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "base/error.hpp"
#include "base/logging.hpp"

namespace foam {

namespace {
constexpr char kMagic[8] = {'F', 'O', 'A', 'M', 'H', 'I', 'S', 'T'};
/// Footer marker: deliberately far above the 4096-byte record-name limit so
/// it can never be confused with a record header.
constexpr std::uint32_t kFooterMarker = 0xF00AE0Fu;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
/// Record names must stay below this so the reader's corruption heuristic
/// (a plausible name length) keeps its teeth.
constexpr std::uint32_t kMaxNameLen = 4096;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

HistoryWriter::HistoryWriter(const std::string& path)
    : open_(true), path_(path) {
  const std::string tmp = path_ + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  FOAM_REQUIRE(f != nullptr, "cannot open history file '" << tmp << "'");
  file_ = f;
  FOAM_REQUIRE(std::fwrite(kMagic, 1, sizeof(kMagic), f) == sizeof(kMagic),
               "short write of history magic");
}

HistoryWriter::~HistoryWriter() {
  std::string err;
  if (!close_impl(&err) && !err.empty())
    FOAM_LOG_ERROR << "history file '" << path_
                   << "' lost in destructor: " << err;
}

void HistoryWriter::close() {
  std::string err;
  FOAM_REQUIRE(close_impl(&err), "closing history file '" << path_
                                                          << "': " << err);
}

bool HistoryWriter::close_impl(std::string* error) {
  if (!open_) return true;  // already closed (or given up on)
  open_ = false;
  FILE* f = static_cast<FILE*>(file_);
  file_ = nullptr;
  const std::string tmp = path_ + ".tmp";
  bool ok = std::fwrite(&kFooterMarker, sizeof(kFooterMarker), 1, f) == 1;
  ok = ok && std::fwrite(&n_records_, sizeof(n_records_), 1, f) == 1;
  ok = ok && std::fwrite(&hash_, sizeof(hash_), 1, f) == 1;
  if (!ok) {
    if (error) *error = "short write of footer";
    std::fclose(f);
    std::remove(tmp.c_str());
    return false;
  }
  // The checkpoint contract is durability at rename time: flush the stdio
  // buffer, push the data to the device, and only then check fclose — a
  // deferred ENOSPC surfaces in one of these three, never silently.
  if (std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0) {
    if (error) *error = std::strerror(errno);
    std::fclose(f);
    std::remove(tmp.c_str());
    return false;
  }
  if (std::fclose(f) != 0) {
    if (error) *error = std::strerror(errno);
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    if (error) *error = std::string("rename: ") + std::strerror(errno);
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void HistoryWriter::put(const void* data, std::size_t bytes) {
  FILE* f = static_cast<FILE*>(file_);
  FOAM_REQUIRE(bytes == 0 || std::fwrite(data, 1, bytes, f) == bytes,
               "short write to history file '" << path_ << "'");
  hash_ = fnv1a(hash_, data, bytes);
  bytes_written_ += bytes;
}

void HistoryWriter::write_record(const std::string& name,
                                 const std::vector<int>& dims,
                                 const double* data, std::size_t count) {
  FOAM_REQUIRE(open_, "history file already closed");
  FOAM_REQUIRE(name.size() < kMaxNameLen,
               "history record name of " << name.size()
                                         << " bytes exceeds the format's "
                                         << kMaxNameLen - 1 << "-byte limit");
  const std::uint32_t name_len = static_cast<std::uint32_t>(name.size());
  const std::uint32_t ndims = static_cast<std::uint32_t>(dims.size());
  put(&name_len, sizeof(name_len));
  put(name.data(), name.size());
  put(&ndims, sizeof(ndims));
  for (const int d : dims) {
    FOAM_REQUIRE(d >= 0, "negative dim " << d << " in record '" << name
                                         << "'");
    const std::int64_t d64 = d;
    put(&d64, sizeof(d64));
  }
  put(data, sizeof(double) * count);
  ++n_records_;
}

void HistoryWriter::write(const std::string& name, const Field2Dd& field) {
  write_record(name, {field.nx(), field.ny()}, field.data(), field.size());
}

void HistoryWriter::write(const std::string& name, const Field3Dd& field) {
  write_record(name, {field.nx(), field.ny(), field.nz()}, field.data(),
               field.size());
}

void HistoryWriter::write_scalar(const std::string& name, double value) {
  write_record(name, {}, &value, 1);
}

void HistoryWriter::write_series(const std::string& name,
                                 const std::vector<double>& v) {
  write_record(name, {static_cast<int>(v.size())}, v.data(), v.size());
}

HistoryReader::HistoryReader(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  FOAM_REQUIRE(f != nullptr, "cannot open history file '" << path << "'");
  char magic[8];
  FOAM_REQUIRE(std::fread(magic, 1, sizeof(magic), f) == sizeof(magic) &&
                   std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
               "'" << path << "' is not a FOAM history file");
  std::uint64_t hash = 14695981039346656037ULL;
  bool footer_seen = false;
  for (;;) {
    std::uint32_t name_len = 0;
    if (std::fread(&name_len, sizeof(name_len), 1, f) != 1) break;  // EOF
    if (name_len == kFooterMarker) {
      std::uint64_t n_records = 0, want_hash = 0;
      FOAM_REQUIRE(std::fread(&n_records, sizeof(n_records), 1, f) == 1 &&
                       std::fread(&want_hash, sizeof(want_hash), 1, f) == 1,
                   "'" << path << "': truncated history footer");
      FOAM_REQUIRE(n_records == records_.size(),
                   "'" << path << "': footer declares " << n_records
                       << " record(s) but " << records_.size()
                       << " were read — file corrupt");
      FOAM_REQUIRE(want_hash == hash,
                   "'" << path << "': record checksum mismatch — file "
                                  "corrupt");
      char extra = 0;
      FOAM_REQUIRE(std::fread(&extra, 1, 1, f) == 0,
                   "'" << path << "': trailing bytes after history footer");
      footer_seen = true;
      break;
    }
    FOAM_REQUIRE(name_len < kMaxNameLen,
                 "corrupt history record name length");
    hash = fnv1a(hash, &name_len, sizeof(name_len));
    HistoryRecord rec;
    rec.name.resize(name_len);
    bool ok = std::fread(rec.name.data(), 1, name_len, f) == name_len;
    hash = fnv1a(hash, rec.name.data(), name_len);
    std::uint32_t ndims = 0;
    ok = ok && std::fread(&ndims, sizeof(ndims), 1, f) == 1;
    FOAM_REQUIRE(ok && ndims <= 8, "corrupt history record header");
    hash = fnv1a(hash, &ndims, sizeof(ndims));
    std::size_t count = 1;
    for (std::uint32_t d = 0; d < ndims; ++d) {
      std::int64_t dim = 0;
      ok = ok && std::fread(&dim, sizeof(dim), 1, f) == 1;
      // Zero-length records (empty series) are legitimate; only negative
      // dims are corruption.
      FOAM_REQUIRE(ok && dim >= 0, "corrupt history record dims");
      hash = fnv1a(hash, &dim, sizeof(dim));
      rec.dims.push_back(static_cast<int>(dim));
      count *= static_cast<std::size_t>(dim);
    }
    rec.data.resize(count);
    ok = ok && (count == 0 ||
                std::fread(rec.data.data(), sizeof(double), count, f) ==
                    count);
    FOAM_REQUIRE(ok, "truncated history record '" << rec.name << "'");
    hash = fnv1a(hash, rec.data.data(), sizeof(double) * count);
    records_.push_back(std::move(rec));
  }
  std::fclose(f);
  FOAM_REQUIRE(footer_seen,
               "'" << path << "': history footer missing — file truncated "
                              "or written by an interrupted process");
}

const HistoryRecord& HistoryReader::find(const std::string& name) const {
  for (const auto& r : records_)
    if (r.name == name) return r;
  FOAM_REQUIRE(false, "history record '" << name << "' not found");
  return records_.front();  // unreachable
}

bool HistoryReader::has(const std::string& name) const {
  for (const auto& r : records_)
    if (r.name == name) return true;
  return false;
}

}  // namespace foam
