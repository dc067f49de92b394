#include "ledger/account_table.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace mv::ledger {

std::size_t AccountTable::home(crypto::Address addr) const {
  // Fibonacci hashing: the top bits of the product spread sequential and
  // structured addresses alike. Taking the top bits (not the low ones) also
  // keeps a shard's table uniform when shard_of() picked its addresses by a
  // hash residue.
  return static_cast<std::size_t>((addr.value * 0x9E3779B97F4A7C15ull) >> shift_);
}

std::size_t AccountTable::probe(crypto::Address addr) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(addr);
  while (slots_[i].live() && slots_[i].addr != addr) i = (i + 1) & mask;
  return i;
}

const Account* AccountTable::find(crypto::Address addr) const {
  if (slots_.empty()) return nullptr;
  const Account& slot = slots_[probe(addr)];
  return slot.live() ? &slot : nullptr;
}

void AccountTable::erase_at(std::size_t i) {
  // Backward-shift deletion: pull each later entry of the probe chain into
  // the hole unless the hole lies before its home slot (cyclically), so
  // every remaining entry stays reachable from its home.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j].live(); j = (j + 1) & mask) {
    const std::size_t h = home(slots_[j].addr);
    if (((j - h) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Account{};
  --size_;
}

void AccountTable::rehash(std::size_t capacity) {
  std::vector<Account> old = std::exchange(slots_, std::vector<Account>(capacity));
  shift_ = 64 - std::countr_zero(capacity);
  for (const Account& a : old) {
    if (a.live()) slots_[probe(a.addr)] = a;
  }
}

void AccountTable::reserve(std::size_t n) {
  std::size_t capacity = std::max(slots_.size(), kMinCapacity);
  while (n * 8 > capacity * 7) capacity *= 2;
  if (capacity != slots_.size()) rehash(capacity);
}

std::vector<Account> AccountTable::sorted() const {
  std::vector<Account> out(begin(), end());
  std::sort(out.begin(), out.end(),
            [](const Account& a, const Account& b) { return a.addr < b.addr; });
  return out;
}

}  // namespace mv::ledger
