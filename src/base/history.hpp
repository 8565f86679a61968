#pragma once

/// \file history.hpp
/// Self-describing, crash-safe binary history format for model output and
/// checkpoints.
///
/// A history file is a sequence of records:
///   magic "FOAMHIST"  (file header, once)
///   [record]*  where record = name-length, name bytes, ndims, dims[ndims],
///              then nx*ny*... float64 values, x fastest (a record may be
///              zero-length: ndims >= 1 with a 0 dim, or a 0-d scalar)
///   footer     marker, record count, FNV-1a hash of every record byte.
///
/// Crash safety: the writer streams into `<path>.tmp` and only on a clean
/// close() — footer written, fflush + fsync succeeded, fclose checked —
/// renames the file onto `<path>`. A crash mid-write therefore never leaves
/// a partial file at the final path, and the reader refuses any file whose
/// footer is missing or disagrees with the records actually read, so
/// silent truncation (power loss after a rename of a corrupt file, manual
/// copy gone wrong, garbage appended) is detected instead of loading
/// partial state. This is what makes the format usable for restart
/// checkpoints, not just history tapes.

#include <cstdint>
#include <string>
#include <vector>

#include "base/field.hpp"

namespace foam {

class HistoryWriter {
 public:
  explicit HistoryWriter(const std::string& path);
  ~HistoryWriter();
  HistoryWriter(const HistoryWriter&) = delete;
  HistoryWriter& operator=(const HistoryWriter&) = delete;

  void write(const std::string& name, const Field2Dd& field);
  void write(const std::string& name, const Field3Dd& field);
  void write_scalar(const std::string& name, double value);
  /// A zero-length series is legal and round-trips as dims {0}.
  void write_series(const std::string& name, const std::vector<double>& v);

  /// Finish the file: write the footer, fflush + fsync, close, and
  /// atomically rename `<path>.tmp` onto `<path>`. Throws foam::Error if
  /// any step fails (ENOSPC and friends must not produce a checkpoint that
  /// reports success). The destructor calls the same sequence but logs and
  /// continues on failure — never call close() from an unwinding path.
  void close();

  /// Payload bytes written so far (records only, excluding file framing).
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  void write_record(const std::string& name, const std::vector<int>& dims,
                    const double* data, std::size_t count);
  void put(const void* data, std::size_t bytes);
  /// Shared body of close(); returns false instead of throwing.
  bool close_impl(std::string* error);

  void* file_ = nullptr;  // FILE*
  bool open_ = false;
  std::string path_;      // final path; the stream writes to path_ + ".tmp"
  std::uint64_t n_records_ = 0;
  std::uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a over record bytes
  std::uint64_t bytes_written_ = 0;
};

/// One record read back from a history file.
struct HistoryRecord {
  std::string name;
  std::vector<int> dims;
  std::vector<double> data;
};

class HistoryReader {
 public:
  explicit HistoryReader(const std::string& path);

  const std::vector<HistoryRecord>& records() const { return records_; }

  /// First record with the given name; throws if absent.
  const HistoryRecord& find(const std::string& name) const;
  bool has(const std::string& name) const;

 private:
  std::vector<HistoryRecord> records_;
};

}  // namespace foam
