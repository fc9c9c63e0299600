#ifndef FLOQ_UTIL_EPOCH_H_
#define FLOQ_UTIL_EPOCH_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

// Epochs over immutable objects, for one writer and many readers. The
// writer owns the current objects through shared_ptrs. An epoch holds
// plain pointers to them (a PointerArray) and a pin; when the writer
// replaces or drops an object it retires it instead of freeing it, and
// the object is freed once every epoch pinned before the replacement is
// released. Taking an epoch therefore copies pointers only: no object and
// no reference count is touched but the pin's.

namespace floq {

/// The writer's side: retire what a mutation replaced, then seal.
class Retirer {
 public:
  /// Held by an epoch: keeps every object current at pin() alive.
  using Pin = std::shared_ptr<const void>;

  Retirer() = default;
  Retirer(const Retirer&) = delete;
  Retirer& operator=(const Retirer&) = delete;

  /// Keeps `object`, which the current mutation replaced or dropped, alive
  /// for every pin taken before it.
  void Retire(std::shared_ptr<const void> object) {
    if (object != nullptr) current_->retired.push_back(std::move(object));
  }
  /// Ends a mutation: what is retired from here on is held for the pins
  /// taken from here on. With no pin left that could see them, the objects
  /// retired so far are freed here.
  void Seal() {
    if (current_->retired.empty()) return;
    auto next = std::make_shared<Node>();
    current_->next = next;
    current_ = std::move(next);
  }
  Pin pin() const { return current_; }

 private:
  // The objects retired while this node was current, and the node after
  // it: a pin on one node holds every later one.
  struct Node {
    std::vector<std::shared_ptr<const void>> retired;
    std::shared_ptr<Node> next;

    ~Node() {
      // An epoch pinned for long holds a long chain: unlink it without
      // recursing. use_count() == 1 means this holds the only reference.
      std::shared_ptr<Node> rest = std::move(next);
      while (rest != nullptr && rest.use_count() == 1) {
        std::shared_ptr<Node> after = std::move(rest->next);
        rest = std::move(after);
      }
    }
  };

  std::shared_ptr<Node> current_ = std::make_shared<Node>();
};

/// The reader's side: a flat array of pointers to immutable values that a
/// pin keeps alive, read like a vector of values — range-for and
/// operator[] yield `const T&`.
template <class T>
class PointerArray {
 public:
  class const_iterator {
   public:
    explicit const_iterator(typename std::vector<const T*>::const_iterator it)
        : it_(it) {}
    const T& operator*() const { return **it_; }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    typename std::vector<const T*>::const_iterator it_;
  };

  size_t size() const { return items_.size(); }
  const T& operator[](size_t i) const { return *items_[i]; }
  const_iterator begin() const { return const_iterator(items_.begin()); }
  const_iterator end() const { return const_iterator(items_.end()); }

  const std::vector<const T*>& items() const { return items_; }
  std::vector<const T*>& items() { return items_; }

 private:
  std::vector<const T*> items_;
};

}  // namespace floq

#endif  // FLOQ_UTIL_EPOCH_H_
