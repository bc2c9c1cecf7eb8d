#include "io/assignment_sink.h"

#include <stdexcept>

#include "util/text_io.h"

namespace loom {
namespace io {

FileAssignmentSink::FileAssignmentSink(const std::string& path)
    : path_(path), out_(path, std::ios::trunc) {
  if (!out_) {
    throw std::runtime_error("assignment sink: cannot write '" + path_ + "'");
  }
}

void FileAssignmentSink::Append(graph::VertexId vertex,
                                graph::PartitionId partition) {
  char line[2 * util::kMaxDecimalDigits + 2];
  char* p = util::FormatDecimal(line, vertex);
  *p++ = '\t';
  p = util::FormatDecimal(p, partition);
  *p++ = '\n';
  out_.write(line, p - line);
  ++written_;
}

void FileAssignmentSink::Flush() {
  out_.flush();
  if (!out_) {
    throw std::runtime_error("assignment sink: write failed on '" + path_ +
                             "'");
  }
}

FileEdgeAssignmentSink::FileEdgeAssignmentSink(const std::string& path)
    : path_(path), out_(path, std::ios::trunc) {
  if (!out_) {
    throw std::runtime_error("edge assignment sink: cannot write '" + path_ +
                             "'");
  }
}

void FileEdgeAssignmentSink::Append(graph::EdgeId /*edge*/, graph::VertexId u,
                                    graph::VertexId v,
                                    graph::PartitionId partition) {
  char line[3 * util::kMaxDecimalDigits + 3];
  char* p = util::FormatDecimal(line, u);
  *p++ = '\t';
  p = util::FormatDecimal(p, v);
  *p++ = '\t';
  p = util::FormatDecimal(p, partition);
  *p++ = '\n';
  out_.write(line, p - line);
  ++written_;
}

void FileEdgeAssignmentSink::Flush() {
  out_.flush();
  if (!out_) {
    throw std::runtime_error("edge assignment sink: write failed on '" +
                             path_ + "'");
  }
}

}  // namespace io
}  // namespace loom
