#ifndef REGAL_CORE_ALGEBRA_H_
#define REGAL_CORE_ALGEBRA_H_

#include <cstddef>
#include <vector>

#include "core/region.h"
#include "core/region_set.h"
#include "text/tokenizer.h"

namespace regal {

/// Efficient implementations of the region algebra operators of
/// Definition 2.3. All inputs/outputs are document-ordered RegionSets; no
/// laminarity is assumed (the operators are correct for arbitrary region
/// sets), so they also serve instances that violate the hierarchy
/// assumption.
///
/// Complexities: set operations are linear merges; the structural
/// semi-joins (Including/Included/Select) are one O(|R| + |S|) forward walk
/// over both operands against an endpoint array of S (ContainmentIndex);
/// Precedes/Follows are O(|R| + |S|).
///
/// `naive::` holds O(|R|*|S|) reference implementations used as oracles by
/// the property tests and as the baseline in bench_operators (experiment E8).

/// R ∪ S.
RegionSet Union(const RegionSet& r, const RegionSet& s);
/// R ∩ S.
RegionSet Intersect(const RegionSet& r, const RegionSet& s);
/// R - S.
RegionSet Difference(const RegionSet& r, const RegionSet& s);

/// R ⊃ S = {r ∈ R : ∃s ∈ S, r strictly includes s}.
RegionSet Including(const RegionSet& r, const RegionSet& s);
/// R ⊂ S = {r ∈ R : ∃s ∈ S, s strictly includes r}.
RegionSet Included(const RegionSet& r, const RegionSet& s);
/// R < S = {r ∈ R : ∃s ∈ S, r precedes s}.
RegionSet Precedes(const RegionSet& r, const RegionSet& s);
/// R > S = {r ∈ R : ∃s ∈ S, r follows s}.
RegionSet Follows(const RegionSet& r, const RegionSet& s);

/// σ_p(R) given the sorted list of tokens matching p: the regions of R
/// containing (not necessarily strictly) at least one matching token.
RegionSet SelectByTokens(const RegionSet& r, const std::vector<Token>& tokens);

/// One O(|S|) endpoint array over a fixed region set S, in S's document
/// order, behind the structural semi-joins and the both-included operator:
///
///  * kSuffixMin: bound[i] = min right endpoint of S[i..n). Any s with
///    left(s) > right(r) also has right(s) > right(r), so "some s with
///    left(s) >= x lies inside r" is just bound[first index with left >= x]
///    <= right(r), with no upper limit on the lefts.
///  * kPrefixMax: bound[i] = max right endpoint of S[0..i].
///
/// R is walked in document order (left ascending), so the first indices of
/// S with left >= left(r) and left > left(r) only move forward: one walk
/// answers every r in O(|R| + |S|). Each walk starts with one binary search
/// for its first left endpoint, so the partitioned kernels of
/// exec/parallel_algebra.cc run the same walk per chunk of R.
class ContainmentIndex {
 public:
  enum Kind { kSuffixMin, kPrefixMax };

  ContainmentIndex(const RegionSet& s, Kind kind);
  /// A kSuffixMin index over a token list sorted by left endpoint, as
  /// WordIndex::Matches returns it.
  explicit ContainmentIndex(const std::vector<Token>& tokens);

  /// Append to `out`, in order, each r of the document-ordered span [b, e)
  /// that strictly includes some s ∈ S (R ⊃ S; needs kSuffixMin).
  void WalkIncluding(const Region* b, const Region* e,
                     std::vector<Region>* out) const;
  /// ... that some s ∈ S strictly includes (R ⊂ S; needs kPrefixMax).
  void WalkIncluded(const Region* b, const Region* e,
                    std::vector<Region>* out) const;
  /// ... that contains some s ∈ S, allowing s == r (σ_p; needs kSuffixMin).
  void WalkContaining(const Region* b, const Region* e,
                      std::vector<Region>* out) const;

  /// Smallest right endpoint among S-regions contained in r (equality with
  /// r allowed); returns false if none. Needs kSuffixMin.
  bool MinRightContainedIn(const Region& r, Offset* out) const;
  /// Largest left endpoint among S-regions contained in r. Needs kSuffixMin.
  bool MaxLeftContainedIn(const Region& r, Offset* out) const;

  bool empty() const { return entries_.empty(); }

 private:
  struct Entry {
    Offset left;   // Ascending (S's document order).
    Offset bound;  // The Kind's running extreme of right endpoints.
  };

  template <typename Seq>
  void Build(const Seq& s, Kind kind);
  /// The forward walk: appends each r of [b, e) for which keep(r, a0, a1)
  /// holds, where a0 / a1 are the first indices with left >= / > left(r).
  template <typename Keep>
  void Walk(const Region* b, const Region* e, std::vector<Region>* out,
            Keep keep) const;
  /// First index whose left endpoint is >= left.
  size_t FirstAtOrAfter(Offset left) const;

  std::vector<Entry> entries_;
};

namespace naive {

RegionSet Including(const RegionSet& r, const RegionSet& s);
RegionSet Included(const RegionSet& r, const RegionSet& s);
RegionSet Precedes(const RegionSet& r, const RegionSet& s);
RegionSet Follows(const RegionSet& r, const RegionSet& s);
RegionSet Union(const RegionSet& r, const RegionSet& s);
RegionSet Intersect(const RegionSet& r, const RegionSet& s);
RegionSet Difference(const RegionSet& r, const RegionSet& s);
RegionSet SelectByTokens(const RegionSet& r, const std::vector<Token>& tokens);

}  // namespace naive

}  // namespace regal

#endif  // REGAL_CORE_ALGEBRA_H_
