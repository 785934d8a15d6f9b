//===- support/ArgParse.h - Strict CLI value parsing ------------*- C++ -*-===//
//
// Strict numeric parsing for command-line flags. The drivers used to run
// flag values through atoll/atof, which silently turn typos ("--trip=1O0",
// "--jobs=") into zeros; these helpers accept a value only when the entire
// string parses, so the drivers can reject malformed input with a usage
// hint and a nonzero exit instead. Out-of-range values (an integer that
// does not fit its destination, a NaN or infinite double) are malformed too.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_SUPPORT_ARGPARSE_H
#define FLEXVEC_SUPPORT_ARGPARSE_H

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

namespace flexvec {

/// Parses all of \p S as a signed decimal integer.
inline bool parseInt(const std::string &S, int64_t &Out) {
  if (S.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S.c_str(), &End, 10);
  if (errno != 0 || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

/// Parses all of \p S as an unsigned decimal integer (leading '-' rejected).
inline bool parseUInt(const std::string &S, uint64_t &Out) {
  if (S.empty() || S[0] == '-')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (errno != 0 || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

/// Parses all of \p S as an unsigned decimal integer that fits in
/// `unsigned`; a larger value is rejected, never truncated.
inline bool parseUnsigned(const std::string &S, unsigned &Out) {
  uint64_t V = 0;
  if (!parseUInt(S, V) || V > std::numeric_limits<unsigned>::max())
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

/// Parses all of \p S as a finite floating-point value ("nan" and "inf"
/// are rejected).
inline bool parseDouble(const std::string &S, double &Out) {
  if (S.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S.c_str(), &End);
  if (errno != 0 || End != S.c_str() + S.size() || !std::isfinite(V))
    return false;
  Out = V;
  return true;
}

} // namespace flexvec

#endif // FLEXVEC_SUPPORT_ARGPARSE_H
