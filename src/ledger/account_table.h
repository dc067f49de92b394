// Flat account table: the ledger's account section — balance entry and
// nonce per address — in one open-addressing hash table.
//
// LedgerState reads and writes every account through this table: a lookup,
// an update or an undo costs one probe into a contiguous slot array instead
// of a walk down a balanced tree per field. The table is unordered; the
// ordered consumers (snapshot encode) sort on demand with sorted(), and the
// order-free ones (commitment oracle, invariants, shard partitioning) walk
// it directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "crypto/wallet.h"

namespace mv::ledger {

/// One account's content. An account exists in the state — and has a leaf
/// in the accounts commitment — iff it has a balance entry or a nonzero
/// nonce (live()). `balance` is 0 whenever `has_balance` is false.
struct Account {
  crypto::Address addr;
  std::uint64_t balance = 0;
  std::uint64_t nonce = 0;
  bool has_balance = false;

  [[nodiscard]] bool live() const { return has_balance || nonce != 0; }
  /// The balance entry, or nullopt when the account was never credited.
  [[nodiscard]] std::optional<std::uint64_t> balance_entry() const {
    return has_balance ? std::optional(balance) : std::nullopt;
  }
  [[nodiscard]] bool operator==(const Account&) const = default;
};

/// Address -> Account, holding live accounts only. Linear probing over a
/// power-of-two slot array kept at most 7/8 full; erasure shifts the rest of
/// the probe chain back (no tombstones). A slot is empty iff it holds a
/// leafless Account, so a slot is exactly one Account (32 bytes).
class AccountTable {
 public:
  /// The live account at `addr`, or null.
  [[nodiscard]] const Account* find(crypto::Address addr) const;

  /// Edit `addr`'s account in place, in one probe: `edit` receives the
  /// current content (a leafless Account{addr} when absent) and may change
  /// any field but the address. A result that is not live() removes the
  /// account. Returns the content before the edit.
  template <typename Edit>
  Account update(crypto::Address addr, Edit&& edit);

  /// Replace `account.addr`'s content with `account` (removing it when not
  /// live()); returns the prior content.
  Account put(const Account& account) {
    return update(account.addr, [&](Account& a) { a = account; });
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Make room for `n` accounts without rehashing.
  void reserve(std::size_t n);

  /// Every live account, ascending by address.
  [[nodiscard]] std::vector<Account> sorted() const;

  /// Unordered walk over the live accounts.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Account;
    using difference_type = std::ptrdiff_t;
    using pointer = const Account*;
    using reference = const Account&;

    const_iterator() = default;
    const Account& operator*() const { return *slot_; }
    const Account* operator->() const { return slot_; }
    const_iterator& operator++() {
      ++slot_;
      skip_empty();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator& o) const { return slot_ == o.slot_; }

   private:
    friend class AccountTable;
    const_iterator(const Account* slot, const Account* end)
        : slot_(slot), end_(end) {
      skip_empty();
    }
    void skip_empty() {
      while (slot_ != end_ && !slot_->live()) ++slot_;
    }
    const Account* slot_ = nullptr;
    const Account* end_ = nullptr;
  };
  [[nodiscard]] const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  [[nodiscard]] const_iterator end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t home(crypto::Address addr) const;
  /// The slot holding `addr`, or the empty slot ending its probe chain.
  /// Requires a non-empty slot array.
  [[nodiscard]] std::size_t probe(crypto::Address addr) const;
  /// Empty slot `i` and shift the rest of its probe chain back.
  void erase_at(std::size_t i);
  void rehash(std::size_t capacity);

  std::vector<Account> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;  ///< 64 - log2(capacity): home() keeps the top bits
};

template <typename Edit>
Account AccountTable::update(crypto::Address addr, Edit&& edit) {
  if (slots_.empty()) rehash(kMinCapacity);
  std::size_t i = probe(addr);
  const bool present = slots_[i].live();
  Account next = present ? slots_[i] : Account{addr};
  const Account prior = next;
  edit(next);
  if (present) {
    if (next.live()) {
      slots_[i] = next;
    } else {
      erase_at(i);
    }
  } else if (next.live()) {
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      rehash(slots_.size() * 2);
      i = probe(addr);
    }
    slots_[i] = next;
    ++size_;
  }
  return prior;
}

}  // namespace mv::ledger
