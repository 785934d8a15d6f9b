//===- driver/Remarks.cpp -------------------------------------------------===//

#include "driver/Remarks.h"

using namespace flexvec;
using namespace flexvec::driver;

const char *driver::remarkKindName(RemarkKind K) {
  switch (K) {
  case RemarkKind::Analysis:
    return "analysis";
  case RemarkKind::Applied:
    return "applied";
  case RemarkKind::Missed:
    return "missed";
  case RemarkKind::Note:
    return "note";
  }
  return "?";
}

Json Remark::toJson() const {
  Json J = Json::object();
  J.set("kind", remarkKindName(Kind));
  J.set("pass", Pass);
  J.set("id", Id);
  if (!Variant.empty())
    J.set("variant", Variant);
  if (Node > 0)
    J.set("node", Node);
  J.set("message", Message);
  return J;
}

std::string Remark::str() const {
  std::string Out = "[";
  Out += remarkKindName(Kind);
  Out += "] ";
  Out += Pass;
  if (!Variant.empty()) {
    Out += "/";
    Out += Variant;
  }
  if (Node > 0) {
    Out += " S";
    Out += std::to_string(Node);
  }
  Out += ": ";
  Out += Message;
  Out += " (";
  Out += Id;
  Out += ")";
  return Out;
}

Remark &RemarkStream::emit(RemarkKind K, std::string Pass, std::string Id,
                           std::string Message) {
  Remark R;
  R.Kind = K;
  R.Pass = std::move(Pass);
  R.Id = std::move(Id);
  R.Message = std::move(Message);
  All.push_back(std::move(R));
  return All.back();
}

const Remark *RemarkStream::lastMissed(const std::string &Variant) const {
  for (auto It = All.rbegin(); It != All.rend(); ++It)
    if (It->Kind == RemarkKind::Missed && It->Variant == Variant)
      return &*It;
  return nullptr;
}

Json RemarkStream::toJson() const {
  Json A = Json::array();
  for (const Remark &R : All)
    A.push(R.toJson());
  return A;
}

Json RemarkStream::toJsonFor(const std::string &Variant) const {
  Json A = Json::array();
  for (const Remark &R : All)
    if (R.Variant.empty() || R.Variant == Variant)
      A.push(R.toJson());
  return A;
}

std::string RemarkStream::render() const {
  std::string Out;
  for (const Remark &R : All) {
    Out += "remark: ";
    Out += R.str();
    Out += '\n';
  }
  return Out;
}
