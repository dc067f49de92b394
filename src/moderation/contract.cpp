#include "moderation/contract.h"

namespace mv::moderation {

namespace {

std::string report_key(std::uint64_t id) {
  return "report/" + std::to_string(id);
}

/// Stored record: reporter || offender || kind || filed_height || status.
/// (The free-form detail string is hashed into the record key space only via
/// the transaction itself; the store keeps the adjudicable facts.)
Bytes encode_record(const ModerationContract::ReportView& v) {
  ByteWriter w;
  w.u64(v.reporter.value);
  w.u64(v.offender.value);
  w.u8(v.kind);
  w.i64(v.filed_height);
  w.u8(static_cast<std::uint8_t>(v.status));
  return w.take();
}

/// Lenient on purpose, no finish(): the record is the contract's own store
/// value, never peer input.
Result<ModerationContract::ReportView> decode_record(const Bytes& bytes) {
  ByteReader r(bytes, errc::kModBadArgs);
  ModerationContract::ReportView v;
  v.reporter = crypto::Address{r.read_u64()};
  v.offender = crypto::Address{r.read_u64()};
  v.kind = r.read_u8();
  v.filed_height = r.read_i64();
  const std::uint8_t status = r.read_u8();
  if (status > 2) r.fail(errc::kModBadArgs, "report status not in {0,1,2}");
  v.status = static_cast<ReportStatus>(status);
  if (!r.ok()) return r.error();
  return v;
}

}  // namespace

Status ModerationContract::call(ledger::CallContext& ctx,
                                const std::string& method,
                                const Bytes& args) const {
  if (method == "report") return do_report(ctx, args);
  if (method == "resolve") return do_resolve(ctx, args);
  return Status::fail(errc::kModUnknownMethod, method);
}

Status ModerationContract::do_report(ledger::CallContext& ctx,
                                     const Bytes& args) const {
  // report(offender: address, kind: u8, detail: str)
  ByteReader r(args, errc::kModBadArgs);
  const crypto::Address offender{r.read_u64()};
  const std::uint8_t kind = r.read_u8();
  (void)r.read_view();  // detail: carried by the transaction, not stored
  if (!offender.valid() || kind > config_.max_kind) {
    r.fail(errc::kModBadArgs, "null offender or unknown kind");
  }
  if (Status s = r.finish(errc::kModBadArgs); !s.ok()) return s;
  if (offender == ctx.caller()) {
    return Status::fail(errc::kModSelfReport, "cannot report yourself");
  }
  const std::uint64_t id = ctx.bump("next_id", 1);
  ReportView v;
  v.reporter = ctx.caller();
  v.offender = offender;
  v.kind = kind;
  v.filed_height = ctx.height();
  v.status = ReportStatus::kOpen;
  ctx.put(report_key(id), encode_record(v));
  ctx.bump("open_count", 1);
  return {};
}

Status ModerationContract::do_resolve(ledger::CallContext& ctx,
                                      const Bytes& args) const {
  if (ctx.caller() != config_.moderator) {
    return Status::fail(errc::kModNotModerator,
                        "resolve is restricted to the moderator identity");
  }
  // resolve(id: u64, uphold: 0|1)
  ByteReader r(args, errc::kModBadArgs);
  const std::uint64_t id = r.read_u64();
  const std::uint8_t uphold = r.read_u8();
  if (uphold > 1) r.fail(errc::kModBadArgs, "uphold not in {0,1}");
  if (Status s = r.finish(errc::kModBadArgs); !s.ok()) return s;
  const Bytes* record = ctx.get(report_key(id));
  if (record == nullptr) {
    return Status::fail(errc::kModNoSuchReport, "unknown report");
  }
  auto decoded = decode_record(*record);
  if (!decoded.ok() || decoded.value().status != ReportStatus::kOpen) {
    return Status::fail(errc::kModAlreadyResolved, "report closed");
  }
  ReportView view = decoded.value();
  view.status = uphold != 0 ? ReportStatus::kUpheld : ReportStatus::kDismissed;
  ctx.put(report_key(id), encode_record(view));
  ctx.bump("open_count", -1);
  if (uphold != 0) ctx.bump("upheld_count", 1);
  return {};
}

std::uint64_t ModerationContract::report_count(const ledger::LedgerState& state,
                                               const std::string& contract) {
  return ledger::store_decode<std::uint64_t>(state.store_get(contract, "next_id"));
}

std::uint64_t ModerationContract::open_count(const ledger::LedgerState& state,
                                             const std::string& contract) {
  return ledger::store_decode<std::uint64_t>(state.store_get(contract, "open_count"));
}

std::uint64_t ModerationContract::upheld_count(const ledger::LedgerState& state,
                                               const std::string& contract) {
  return ledger::store_decode<std::uint64_t>(state.store_get(contract, "upheld_count"));
}

Result<ModerationContract::ReportView> ModerationContract::report(
    const ledger::LedgerState& state, const std::string& contract,
    std::uint64_t id) {
  const Bytes* record = state.store_get(contract, report_key(id));
  if (record == nullptr) return make_error(errc::kModNoSuchReport, "unknown report");
  return decode_record(*record);
}

Bytes ModerationContract::encode_report(crypto::Address offender,
                                        std::uint8_t kind,
                                        const std::string& detail) {
  ByteWriter w;
  w.u64(offender.value);
  w.u8(kind);
  w.str(detail);
  return w.take();
}

Bytes ModerationContract::encode_resolve(std::uint64_t id, bool uphold) {
  ByteWriter w;
  w.u64(id);
  w.u8(uphold ? 1 : 0);
  return w.take();
}

}  // namespace mv::moderation
