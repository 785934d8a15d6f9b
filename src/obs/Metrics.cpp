//===- obs/Metrics.cpp ----------------------------------------------------===//

#include "obs/Metrics.h"

#include <cassert>

using namespace flexvec;
using namespace flexvec::obs;

Registry::Entry &Registry::entry(const std::string &Name, Entry::Kind K) {
  auto It = Index.find(Name);
  if (It != Index.end()) {
    Entry &E = *Entries[It->second];
    assert(E.K == K && "metric re-registered with a different kind");
    return E;
  }
  auto E = std::make_unique<Entry>();
  E->K = K;
  E->Name = Name;
  Entries.push_back(std::move(E));
  Index.emplace(Name, Entries.size() - 1);
  return *Entries.back();
}

const Registry::Entry *Registry::find(const std::string &Name,
                                      Entry::Kind K) const {
  auto It = Index.find(Name);
  if (It == Index.end())
    return nullptr;
  const Entry &E = *Entries[It->second];
  return E.K == K ? &E : nullptr;
}

Counter &Registry::counter(const std::string &Name) {
  return entry(Name, Entry::Kind::Counter).C;
}

Gauge &Registry::gauge(const std::string &Name) {
  return entry(Name, Entry::Kind::Gauge).G;
}

Histogram &Registry::histogram(const std::string &Name, unsigned NumBuckets) {
  Entry &E = entry(Name, Entry::Kind::Histogram);
  if (E.H.numBuckets() < NumBuckets)
    E.H.Buckets.resize(NumBuckets, 0);
  return E.H;
}

const Counter *Registry::findCounter(const std::string &Name) const {
  const Entry *E = find(Name, Entry::Kind::Counter);
  return E ? &E->C : nullptr;
}

const Histogram *Registry::findHistogram(const std::string &Name) const {
  const Entry *E = find(Name, Entry::Kind::Histogram);
  return E ? &E->H : nullptr;
}

void Registry::copyFrom(const Registry &O) {
  Entries.reserve(O.Entries.size());
  for (const auto &E : O.Entries) {
    Entries.push_back(std::make_unique<Entry>(*E));
    Index.emplace(E->Name, Entries.size() - 1);
  }
}

void Registry::merge(const Registry &O) {
  for (const auto &EP : O.Entries) {
    const Entry &S = *EP;
    switch (S.K) {
    case Entry::Kind::Counter:
      counter(S.Name).inc(S.C.value());
      break;
    case Entry::Kind::Gauge:
      // Gauges are per-scope derived values; aggregating by sum would be
      // meaningless, so merge drops them.
      break;
    case Entry::Kind::Histogram: {
      Histogram &D = histogram(S.Name, S.H.numBuckets());
      for (unsigned B = 0; B < S.H.numBuckets(); ++B)
        if (S.H.bucket(B))
          D.addToBucket(B, S.H.bucket(B));
      break;
    }
    }
  }
}

Json Registry::toJson() const {
  Json Out = Json::object();
  for (const auto &EP : Entries) {
    const Entry &E = *EP;
    switch (E.K) {
    case Entry::Kind::Counter:
      Out.set(E.Name, Json(E.C.value()));
      break;
    case Entry::Kind::Gauge:
      Out.set(E.Name, Json(E.G.value()));
      break;
    case Entry::Kind::Histogram: {
      Json Buckets = Json::array();
      for (unsigned B = 0; B < E.H.numBuckets(); ++B)
        Buckets.push(Json(E.H.bucket(B)));
      Out.set(E.Name, std::move(Buckets));
      break;
    }
    }
  }
  return Out;
}
