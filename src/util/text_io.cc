#include "util/text_io.h"

#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace loom {
namespace util {

LineReader::LineReader(std::istream& in)
    : in_(in), buf_(new char[kTextBufferBytes]) {}

bool LineReader::Next(std::string_view* line) {
  carry_.clear();  // the previous call's straddling line, if any
  for (;;) {
    const char* begin = buf_.get() + pos_;
    const size_t avail = len_ - pos_;
    const char* nl = avail == 0 ? nullptr
                                : static_cast<const char*>(
                                      std::memchr(begin, '\n', avail));
    if (nl != nullptr) {
      const size_t n = static_cast<size_t>(nl - begin);
      pos_ += n + 1;
      ++line_number_;
      if (carry_.empty()) {
        *line = std::string_view(begin, n);
      } else {
        carry_.append(begin, n);
        *line = carry_;
      }
      return true;
    }
    // No newline in what is left: keep the partial line and read on.
    carry_.append(begin, avail);
    pos_ = len_;
    if (eof_) {
      if (carry_.empty()) return false;
      ++line_number_;
      *line = carry_;
      return true;
    }
    Refill();
  }
}

void LineReader::Refill() {
  in_.read(buf_.get(), static_cast<std::streamsize>(kTextBufferBytes));
  if (in_.bad()) throw std::runtime_error("read error");
  len_ = static_cast<size_t>(in_.gcount());
  pos_ = 0;
  eof_ = len_ < kTextBufferBytes;
}

TextWriter::TextWriter(std::ostream& out)
    : out_(out), buf_(new char[kTextBufferBytes]) {}

void TextWriter::Put(std::string_view s) {
  if (kTextBufferBytes - len_ < s.size()) {
    Drain();
    if (s.size() > kTextBufferBytes) {
      out_.write(s.data(), static_cast<std::streamsize>(s.size()));
      return;
    }
  }
  std::memcpy(buf_.get() + len_, s.data(), s.size());
  len_ += s.size();
}

void TextWriter::Drain() {
  out_.write(buf_.get(), static_cast<std::streamsize>(len_));
  len_ = 0;
}

void TextWriter::Flush() {
  Drain();
  out_.flush();
  if (!out_) throw std::runtime_error("write failed");
}

}  // namespace util
}  // namespace loom
