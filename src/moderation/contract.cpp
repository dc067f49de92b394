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

std::optional<ModerationContract::ReportView> decode_record(const Bytes& bytes) {
  ByteReader r(bytes);
  ModerationContract::ReportView v;
  auto reporter = r.u64();
  auto offender = r.u64();
  auto kind = r.u8();
  auto height = r.i64();
  auto status = r.u8();
  if (!reporter.ok() || !offender.ok() || !kind.ok() || !height.ok() ||
      !status.ok() || status.value() > 2) {
    return std::nullopt;
  }
  v.reporter = crypto::Address{reporter.value()};
  v.offender = crypto::Address{offender.value()};
  v.kind = kind.value();
  v.filed_height = height.value();
  v.status = static_cast<ReportStatus>(status.value());
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
  ByteReader r(args);
  auto offender = r.u64();
  auto kind = r.u8();
  auto detail = r.str();
  if (!offender.ok() || !kind.ok() || !detail.ok() || offender.value() == 0 ||
      kind.value() > config_.max_kind) {
    return Status::fail(errc::kModBadArgs,
                        "report(offender: address, kind: u8, detail: str)");
  }
  if (offender.value() == ctx.caller().value) {
    return Status::fail(errc::kModSelfReport, "cannot report yourself");
  }
  const std::uint64_t id = ctx.bump("next_id", 1);
  ReportView v;
  v.reporter = ctx.caller();
  v.offender = crypto::Address{offender.value()};
  v.kind = kind.value();
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
  ByteReader r(args);
  auto id = r.u64();
  auto uphold = r.u8();
  if (!id.ok() || !uphold.ok() || uphold.value() > 1) {
    return Status::fail(errc::kModBadArgs, "resolve(id: u64, uphold: 0|1)");
  }
  const Bytes* record = ctx.get(report_key(id.value()));
  if (record == nullptr) {
    return Status::fail(errc::kModNoSuchReport, "unknown report");
  }
  auto view = decode_record(*record);
  if (!view.has_value() || view->status != ReportStatus::kOpen) {
    return Status::fail(errc::kModAlreadyResolved, "report closed");
  }
  view->status = uphold.value() != 0 ? ReportStatus::kUpheld
                                     : ReportStatus::kDismissed;
  ctx.put(report_key(id.value()), encode_record(*view));
  ctx.bump("open_count", -1);
  if (uphold.value() != 0) ctx.bump("upheld_count", 1);
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
  auto view = decode_record(*record);
  if (!view.has_value()) return make_error(errc::kModBadArgs, "corrupt record");
  return *view;
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
