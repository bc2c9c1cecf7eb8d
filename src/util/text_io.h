// Buffered line-oriented text I/O: the one scanner and formatter behind the
// `.lg` graph files (graph/graph_io) and the assignment sinks (io/).
//
// Both sides move data in fixed kTextBufferBytes blocks and touch no
// iostream formatting per field: a line costs a memchr plus from_chars or
// to_chars per field. Memory is bounded by the block size, not the file
// size; only a single line longer than a block is carried whole, as
// std::getline would.

#ifndef LOOM_UTIL_TEXT_IO_H_
#define LOOM_UTIL_TEXT_IO_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

namespace loom {
namespace util {

/// Block size of LineReader and TextWriter.
inline constexpr size_t kTextBufferBytes = size_t{1} << 20;

/// Longest decimal rendering of a uint64_t.
inline constexpr size_t kMaxDecimalDigits = 20;

/// Writes `v` in decimal at `p`, which must have kMaxDecimalDigits bytes of
/// room, and returns one past the last digit.
inline char* FormatDecimal(char* p, uint64_t v) {
  return std::to_chars(p, p + kMaxDecimalDigits, v).ptr;
}

/// Reads `in` in kTextBufferBytes blocks and hands out one line at a time.
class LineReader {
 public:
  explicit LineReader(std::istream& in);

  /// Sets `*line` to the next line without its '\n' (a '\r' before it is
  /// kept) and returns true; false once the stream is
  /// drained. A last line without a final newline is still a line. The
  /// view stays valid until the next call. Throws std::runtime_error if
  /// the stream reports a read error.
  bool Next(std::string_view* line);

  /// 1-based number of the line Next last returned.
  uint64_t line_number() const { return line_number_; }

 private:
  void Refill();

  std::istream& in_;
  std::unique_ptr<char[]> buf_;
  size_t pos_ = 0;  // next unread byte in buf_
  size_t len_ = 0;  // valid bytes in buf_
  bool eof_ = false;
  std::string carry_;  // a line that straddles a refill
  uint64_t line_number_ = 0;
};

/// Formats into a kTextBufferBytes block and writes it to `out` each time
/// it fills. Nothing reaches `out` before the block fills or Flush runs.
class TextWriter {
 public:
  explicit TextWriter(std::ostream& out);

  void Put(std::string_view s);
  void Put(char c) {
    if (len_ == kTextBufferBytes) Drain();
    buf_[len_++] = c;
  }
  void PutDecimal(uint64_t v) {
    if (kTextBufferBytes - len_ < kMaxDecimalDigits) Drain();
    len_ = static_cast<size_t>(FormatDecimal(buf_.get() + len_, v) -
                               buf_.get());
  }

  /// Writes the block to `out` and flushes it. Throws std::runtime_error
  /// if `out` reports a failure.
  void Flush();

 private:
  void Drain();  // writes the block to `out`, empties it

  std::ostream& out_;
  std::unique_ptr<char[]> buf_;
  size_t len_ = 0;
};

}  // namespace util
}  // namespace loom

#endif  // LOOM_UTIL_TEXT_IO_H_
