#include "core/algebra.h"

#include <algorithm>
#include <bit>

#include "core/algebra_kernels.h"
#include "obs/counters.h"

namespace regal {

namespace {

// Binary-search depth over an index of n entries: the per-probe comparison
// charge of the naive membership oracles.
int64_t ProbeDepth(size_t n) {
  return static_cast<int64_t>(std::bit_width(n) + 1);
}

// Flushes counters tallied in locals to the thread sink, if one is
// installed. Operators tally into stack variables (register-resident, no
// cost) and pay one load + branch here per call — the disabled fast path.
void ReportCounters(int64_t comparisons, int64_t merge_steps,
                    int64_t index_probes) {
  if (obs::OpCounters* sink = obs::CountersSink()) {
    sink->comparisons += comparisons;
    sink->merge_steps += merge_steps;
    sink->index_probes += index_probes;
  }
}

// The structural semi-joins' analytic charge (see obs/counters.h): one
// comparison and one merge step per element of either operand, one probe
// per element of R.
void ReportSemiJoin(size_t r, size_t s) {
  const auto both = static_cast<int64_t>(r + s);
  ReportCounters(both, both, static_cast<int64_t>(r));
}

}  // namespace

// The set operations run the span kernels of core/algebra_kernels.h over the
// full operands; the parallel layer (exec/parallel_algebra.cc) runs the same
// kernels per contiguous chunk, which keeps the two paths bit-identical.
RegionSet Union(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  out.reserve(r.size() + s.size());
  obs::OpCounters c;
  kernels::UnionSpan(r.regions().data(), r.regions().data() + r.size(),
                     s.regions().data(), s.regions().data() + s.size(), &out,
                     &c);
  kernels::FlushCounters(c);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Intersect(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  obs::OpCounters c;
  kernels::IntersectSpan(r.regions().data(), r.regions().data() + r.size(),
                         s.regions().data(), s.regions().data() + s.size(),
                         &out, &c);
  kernels::FlushCounters(c);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Difference(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  obs::OpCounters c;
  kernels::DifferenceSpan(r.regions().data(), r.regions().data() + r.size(),
                          s.regions().data(), s.regions().data() + s.size(),
                          &out, &c);
  kernels::FlushCounters(c);
  return RegionSet::FromSortedUnique(std::move(out));
}

ContainmentIndex::ContainmentIndex(const RegionSet& s, Kind kind) {
  Build(s, kind);
}

ContainmentIndex::ContainmentIndex(const std::vector<Token>& tokens) {
  Build(tokens, kSuffixMin);
}

template <typename Seq>
void ContainmentIndex::Build(const Seq& s, Kind kind) {
  entries_.reserve(s.size());
  for (const auto& x : s) entries_.push_back(Entry{x.left, x.right});
  if (kind == kSuffixMin) {
    for (size_t i = entries_.size(); i-- > 1;) {
      entries_[i - 1].bound = std::min(entries_[i - 1].bound, entries_[i].bound);
    }
  } else {
    for (size_t i = 1; i < entries_.size(); ++i) {
      entries_[i].bound = std::max(entries_[i].bound, entries_[i - 1].bound);
    }
  }
}

size_t ContainmentIndex::FirstAtOrAfter(Offset left) const {
  return static_cast<size_t>(
      std::partition_point(entries_.begin(), entries_.end(),
                           [left](const Entry& x) { return x.left < left; }) -
      entries_.begin());
}

template <typename Keep>
void ContainmentIndex::Walk(const Region* b, const Region* e,
                            std::vector<Region>* out, Keep keep) const {
  if (b == e) return;
  const size_t n = entries_.size();
  size_t a0 = FirstAtOrAfter(b->left);
  size_t a1 = a0;
  for (const Region* p = b; p != e; ++p) {
    const Region r = *p;
    while (a0 < n && entries_[a0].left < r.left) ++a0;
    while (a1 < n && entries_[a1].left <= r.left) ++a1;
    if (keep(r, a0, a1)) out->push_back(r);
  }
}

void ContainmentIndex::WalkIncluding(const Region* b, const Region* e,
                                     std::vector<Region>* out) const {
  const size_t n = entries_.size();
  // s with left(s) == left(r), in [a0, a1), needs right(s) < right(r); s
  // with left(s) > left(r), from a1 on, only needs right(s) <= right(r).
  Walk(b, e, out, [&](const Region& r, size_t a0, size_t a1) {
    return (a0 < n && entries_[a0].bound < r.right) ||
           (a1 < n && entries_[a1].bound <= r.right);
  });
}

void ContainmentIndex::WalkIncluded(const Region* b, const Region* e,
                                    std::vector<Region>* out) const {
  // s with left(s) < left(r), before a0, needs right(s) >= right(r); s with
  // left(s) == left(r), in [a0, a1), needs right(s) > right(r). The prefix
  // maximum over [0, a1) covers both ranges for the strict test.
  Walk(b, e, out, [&](const Region& r, size_t a0, size_t a1) {
    return (a0 > 0 && entries_[a0 - 1].bound >= r.right) ||
           (a1 > a0 && entries_[a1 - 1].bound > r.right);
  });
}

void ContainmentIndex::WalkContaining(const Region* b, const Region* e,
                                      std::vector<Region>* out) const {
  const size_t n = entries_.size();
  Walk(b, e, out, [&](const Region& r, size_t a0, size_t) {
    return a0 < n && entries_[a0].bound <= r.right;
  });
}

bool ContainmentIndex::MinRightContainedIn(const Region& r, Offset* out) const {
  const size_t a0 = FirstAtOrAfter(r.left);
  if (a0 == entries_.size() || entries_[a0].bound > r.right) return false;
  *out = entries_[a0].bound;
  return true;
}

bool ContainmentIndex::MaxLeftContainedIn(const Region& r, Offset* out) const {
  // The suffix minimum is non-decreasing, so the entries from a0 whose
  // bound fits inside r form a prefix. Its last entry has no later region
  // inside r, so its own right endpoint fits: it is the contained region
  // with the largest left endpoint.
  const auto first = entries_.begin() + FirstAtOrAfter(r.left);
  const auto past =
      std::partition_point(first, entries_.end(), [&r](const Entry& x) {
        return x.bound <= r.right;
      });
  if (past == first) return false;
  *out = (past - 1)->left;
  return true;
}

RegionSet Including(const RegionSet& r, const RegionSet& s) {
  ReportSemiJoin(r.size(), s.size());
  const Region* rd = r.regions().data();
  std::vector<Region> out;
  ContainmentIndex(s, ContainmentIndex::kSuffixMin)
      .WalkIncluding(rd, rd + r.size(), &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Included(const RegionSet& r, const RegionSet& s) {
  ReportSemiJoin(r.size(), s.size());
  const Region* rd = r.regions().data();
  std::vector<Region> out;
  ContainmentIndex(s, ContainmentIndex::kPrefixMax)
      .WalkIncluded(rd, rd + r.size(), &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Precedes(const RegionSet& r, const RegionSet& s) {
  ReportCounters(static_cast<int64_t>(r.size()),
                 static_cast<int64_t>(r.size()) + (s.empty() ? 0 : 1), 0);
  if (s.empty()) return RegionSet();
  // r precedes some s iff right(r) < the largest left endpoint in S, which
  // document order puts in the last element.
  const Offset max_left = s[s.size() - 1].left;
  std::vector<Region> out;
  kernels::FilterRightBefore(r.regions().data(), r.size(), max_left, &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Follows(const RegionSet& r, const RegionSet& s) {
  ReportCounters(static_cast<int64_t>(r.size()),
                 static_cast<int64_t>(r.size() + s.size()), 0);
  if (s.empty()) return RegionSet();
  const Offset min_right = kernels::MinRightEndpoint(s.regions().data(), s.size());
  std::vector<Region> out;
  kernels::FilterLeftAfter(r.regions().data(), r.size(), min_right, &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet SelectByTokens(const RegionSet& r, const std::vector<Token>& tokens) {
  ReportSemiJoin(r.size(), tokens.size());
  const Region* rd = r.regions().data();
  std::vector<Region> out;
  ContainmentIndex(tokens).WalkContaining(rd, rd + r.size(), &out);
  return RegionSet::FromSortedUnique(std::move(out));
}

namespace naive {

RegionSet Including(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  int64_t comparisons = 0;
  for (const Region& x : r) {
    for (const Region& y : s) {
      ++comparisons;
      if (StrictlyIncludes(x, y)) {
        out.push_back(x);
        break;
      }
    }
  }
  ReportCounters(comparisons, 0, 0);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Included(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  int64_t comparisons = 0;
  for (const Region& x : r) {
    for (const Region& y : s) {
      ++comparisons;
      if (StrictlyIncludes(y, x)) {
        out.push_back(x);
        break;
      }
    }
  }
  ReportCounters(comparisons, 0, 0);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Precedes(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  int64_t comparisons = 0;
  for (const Region& x : r) {
    for (const Region& y : s) {
      ++comparisons;
      if (regal::Precedes(x, y)) {
        out.push_back(x);
        break;
      }
    }
  }
  ReportCounters(comparisons, 0, 0);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Follows(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  int64_t comparisons = 0;
  for (const Region& x : r) {
    for (const Region& y : s) {
      ++comparisons;
      if (regal::Precedes(y, x)) {
        out.push_back(x);
        break;
      }
    }
  }
  ReportCounters(comparisons, 0, 0);
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Union(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out(r.begin(), r.end());
  out.insert(out.end(), s.begin(), s.end());
  ReportCounters(0, static_cast<int64_t>(r.size() + s.size()), 0);
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet Intersect(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  for (const Region& x : r) {
    if (s.Member(x)) out.push_back(x);
  }
  ReportCounters(static_cast<int64_t>(r.size()) * ProbeDepth(s.size()), 0,
                 static_cast<int64_t>(r.size()));
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Difference(const RegionSet& r, const RegionSet& s) {
  std::vector<Region> out;
  for (const Region& x : r) {
    if (!s.Member(x)) out.push_back(x);
  }
  ReportCounters(static_cast<int64_t>(r.size()) * ProbeDepth(s.size()), 0,
                 static_cast<int64_t>(r.size()));
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet SelectByTokens(const RegionSet& r, const std::vector<Token>& tokens) {
  std::vector<Region> out;
  int64_t comparisons = 0;
  for (const Region& x : r) {
    for (const Token& t : tokens) {
      ++comparisons;
      if (x.left <= t.left && t.right <= x.right) {
        out.push_back(x);
        break;
      }
    }
  }
  ReportCounters(comparisons, 0, 0);
  return RegionSet::FromSortedUnique(std::move(out));
}

}  // namespace naive

}  // namespace regal
