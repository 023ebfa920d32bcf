/// \file entity_set.h
/// \brief FlatSet: an ordered set kept as one sorted, duplicate-free vector.
///
/// Entity sets are small, read far more often than edited, and grow mostly
/// at the back: creation order is id order, so a new entity's id is the
/// largest yet. A sorted vector serves that with one allocation per set and
/// contiguous iteration, where a node tree pays one allocation per element
/// and a pointer chase per step. The interface is the part of std::set the
/// tree uses, with std::set's signatures and results, and iteration is in
/// ascending order, so output built from a set does not change.
///
/// Invalidation is a vector's, not a tree's: any insert or erase invalidates
/// every iterator and element reference into that set. A reference to the
/// set object itself stays valid, so a loop over a set whose body may
/// insert into or erase from that same set must iterate a copy.

#ifndef ISIS_SDM_ENTITY_SET_H_
#define ISIS_SDM_ENTITY_SET_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

namespace isis::sdm {

template <typename T>
class FlatSet {
 public:
  using value_type = T;
  using key_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = const T&;
  using const_reference = const T&;
  using iterator = typename std::vector<T>::const_iterator;
  using const_iterator = iterator;
  using reverse_iterator = typename std::vector<T>::const_reverse_iterator;
  using const_reverse_iterator = reverse_iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<T> values) {
    insert(values.begin(), values.end());
  }
  template <typename It>
  FlatSet(It first, It last) {
    insert(first, last);
  }

  iterator begin() const { return v_.begin(); }
  iterator end() const { return v_.end(); }
  reverse_iterator rbegin() const { return v_.rbegin(); }
  reverse_iterator rend() const { return v_.rend(); }
  bool empty() const { return v_.empty(); }
  size_type size() const { return v_.size(); }
  void clear() { v_.clear(); }
  void reserve(size_type n) { v_.reserve(n); }

  /// O(1) when `x` is past the back; otherwise a search and a shift.
  std::pair<iterator, bool> insert(const T& x) {
    if (v_.empty() || v_.back() < x) {
      v_.push_back(x);
      return {std::prev(v_.cend()), true};
    }
    iterator at = lower_bound(x);
    if (!(x < *at)) return {at, false};
    return {v_.insert(at, x), true};
  }

  /// As std::set's: `hint` is where `x` is expected to go. A right hint
  /// costs no search; a wrong one costs the search of insert(x).
  iterator insert(iterator hint, const T& x) {
    if ((hint == begin() || *std::prev(hint) < x) &&
        (hint == end() || x < *hint)) {
      return v_.insert(hint, x);
    }
    return insert(x).first;
  }

  /// Appends the range, then restores order: a sort of the new tail only
  /// when it is unsorted, a merge only when it overlaps what was there.
  template <typename It>
  void insert(It first, It last) {
    const auto old = static_cast<difference_type>(v_.size());
    v_.insert(v_.end(), first, last);
    auto mid = v_.begin() + old;
    if (!std::is_sorted(mid, v_.end())) std::sort(mid, v_.end());
    auto from = mid;
    if (old > 0 && mid != v_.end() && !(*std::prev(mid) < *mid)) {
      std::inplace_merge(v_.begin(), mid, v_.end());
      from = v_.begin();
    }
    v_.erase(std::unique(from, v_.end()), v_.end());
  }

  size_type erase(const T& x) {
    iterator at = find(x);
    if (at == end()) return 0;
    v_.erase(at);
    return 1;
  }
  iterator erase(iterator at) { return v_.erase(at); }
  iterator erase(iterator first, iterator last) { return v_.erase(first, last); }

  iterator lower_bound(const T& x) const {
    return std::lower_bound(v_.begin(), v_.end(), x);
  }
  iterator find(const T& x) const {
    iterator at = lower_bound(x);
    return at != end() && !(x < *at) ? at : end();
  }
  bool contains(const T& x) const { return find(x) != end(); }
  size_type count(const T& x) const { return contains(x) ? 1 : 0; }

  friend bool operator==(const FlatSet& a, const FlatSet& b) {
    return a.v_ == b.v_;
  }
  friend bool operator!=(const FlatSet& a, const FlatSet& b) {
    return !(a == b);
  }
  friend bool operator<(const FlatSet& a, const FlatSet& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  std::vector<T> v_;
};

}  // namespace isis::sdm

#endif  // ISIS_SDM_ENTITY_SET_H_
