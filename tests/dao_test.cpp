// DAO tests: membership/delegation, every voting scheme, proposal lifecycle,
// federated routing and escalation, and the on-chain DAO contract.
#include <gtest/gtest.h>

#include <limits>

#include "dao/contract.h"
#include "dao/dao.h"
#include "dao/federated.h"
#include "ledger/chain.h"
#include "ledger/consensus.h"

namespace mv::dao {

// Prints a voting-scheme test parameter by its name. Without it the
// parameterised test names carry heap addresses, which change every build.
inline void PrintTo(const std::shared_ptr<const VotingScheme>& scheme,
                    std::ostream* os) {
  *os << scheme->name();
}

namespace {

Member make_member(std::uint64_t id, std::uint64_t tokens = 1,
                   double reputation = 1.0) {
  Member m;
  m.id = AccountId(id);
  m.tokens = tokens;
  m.reputation = reputation;
  return m;
}

// ------------------------------------------------------------ members

TEST(MemberRegistry, AddAndFind) {
  MemberRegistry reg;
  ASSERT_TRUE(reg.add(make_member(1)).ok());
  EXPECT_EQ(reg.add(make_member(1)).error().code, "dao.duplicate_member");
  EXPECT_NE(reg.find(AccountId(1)), nullptr);
  EXPECT_EQ(reg.find(AccountId(2)), nullptr);
  EXPECT_FALSE(reg.add(Member{}).ok());  // invalid id
}

TEST(MemberRegistry, DelegationChainResolves) {
  MemberRegistry reg;
  for (std::uint64_t i = 1; i <= 4; ++i) ASSERT_TRUE(reg.add(make_member(i)).ok());
  reg.set_delegate(AccountId(1), AccountId(2));
  reg.set_delegate(AccountId(2), AccountId(3));
  EXPECT_EQ(reg.resolve_delegate(AccountId(1)), AccountId(3));
  EXPECT_EQ(reg.resolve_delegate(AccountId(3)), AccountId(3));
  EXPECT_EQ(reg.resolve_delegate(AccountId(4)), AccountId(4));
}

TEST(MemberRegistry, DelegationCycleFallsBackToSelf) {
  MemberRegistry reg;
  for (std::uint64_t i = 1; i <= 3; ++i) ASSERT_TRUE(reg.add(make_member(i)).ok());
  reg.set_delegate(AccountId(1), AccountId(2));
  reg.set_delegate(AccountId(2), AccountId(1));
  EXPECT_EQ(reg.resolve_delegate(AccountId(1)), AccountId(1));
}

TEST(MemberRegistry, BrokenDelegateFallsBackToSelf) {
  MemberRegistry reg;
  ASSERT_TRUE(reg.add(make_member(1)).ok());
  reg.set_delegate(AccountId(1), AccountId(99));  // not a member
  EXPECT_EQ(reg.resolve_delegate(AccountId(1)), AccountId(1));
}

// ------------------------------------------------------------ flat dao

struct DaoFixture {
  DaoConfig config;
  Dao dao;

  explicit DaoFixture(std::shared_ptr<const VotingScheme> scheme =
                          std::make_shared<OneMemberOneVote>(),
                      double quorum = 0.2)
      : config(DaoConfig{quorum, 0.5, 100, std::move(scheme)}),
        dao(config, Rng(42)) {
    for (std::uint64_t i = 1; i <= 10; ++i) {
      EXPECT_TRUE(dao.members().add(make_member(i, /*tokens=*/i,
                                                /*reputation=*/static_cast<double>(i)))
                      .ok());
    }
  }
};

TEST(Dao, ProposalLifecyclePasses) {
  DaoFixture f;
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "enable privacy bubble", 0);
  ASSERT_TRUE(id.ok());
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(i), VoteChoice::kYes, 10).ok());
  }
  ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(7), VoteChoice::kNo, 10).ok());
  auto status = f.dao.finalize(id.value(), 100);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), ProposalStatus::kPassed);
  const Proposal* p = f.dao.find(id.value());
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->tally.yes, 6.0);
  EXPECT_DOUBLE_EQ(p->tally.no, 1.0);
  EXPECT_DOUBLE_EQ(p->tally.eligible_weight, 10.0);
}

TEST(Dao, FailsQuorum) {
  DaoFixture f(std::make_shared<OneMemberOneVote>(), /*quorum=*/0.5);
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "low turnout", 0);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(1), VoteChoice::kYes, 1).ok());
  EXPECT_EQ(f.dao.finalize(id.value(), 100).value(), ProposalStatus::kRejected);
}

TEST(Dao, RejectsDoubleVoteAndNonMember) {
  DaoFixture f;
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "x", 0);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(2), VoteChoice::kYes, 1).ok());
  EXPECT_EQ(f.dao.cast_vote(id.value(), AccountId(2), VoteChoice::kNo, 2).error().code,
            "dao.double_vote");
  EXPECT_EQ(f.dao.cast_vote(id.value(), AccountId(99), VoteChoice::kNo, 2).error().code,
            "dao.not_a_member");
  EXPECT_FALSE(f.dao.propose(AccountId(99), ModuleId(0), "x", 0).ok());
}

TEST(Dao, VotingWindowEnforced) {
  DaoFixture f;
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "x", 0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(f.dao.finalize(id.value(), 50).error().code, "dao.voting_open");
  EXPECT_EQ(f.dao.cast_vote(id.value(), AccountId(1), VoteChoice::kYes, 100).error().code,
            "dao.voting_closed");
  ASSERT_TRUE(f.dao.finalize(id.value(), 100).ok());
  EXPECT_EQ(f.dao.finalize(id.value(), 101).error().code, "dao.already_finalized");
}

TEST(Dao, ExecutorRunsOnPass) {
  DaoFixture f;
  int executed = 0;
  f.dao.set_executor([&](const Proposal&) { ++executed; });
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "x", 0);
  ASSERT_TRUE(id.ok());
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(i), VoteChoice::kYes, 1).ok());
  }
  EXPECT_EQ(f.dao.finalize(id.value(), 100).value(), ProposalStatus::kExecuted);
  EXPECT_EQ(executed, 1);
}

TEST(Dao, FinalizeDueSweepsAll) {
  DaoFixture f;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.dao.propose(AccountId(1), ModuleId(0), "p", 0).ok());
  }
  EXPECT_EQ(f.dao.finalize_due(50), 0u);
  EXPECT_EQ(f.dao.finalize_due(100), 5u);
}

// ------------------------------------------------------------ schemes

TEST(VotingSchemes, TokenWeightedFavorsWhales) {
  DaoFixture f(std::make_shared<TokenWeighted>());
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "whale wins", 0);
  ASSERT_TRUE(id.ok());
  // Members 1..7 (weight 28) vote no; members 9+10 (weight 19) vote yes.
  for (std::uint64_t i = 1; i <= 7; ++i) {
    ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(i), VoteChoice::kNo, 1).ok());
  }
  ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(9), VoteChoice::kYes, 1).ok());
  ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(10), VoteChoice::kYes, 1).ok());
  EXPECT_EQ(f.dao.finalize(id.value(), 100).value(), ProposalStatus::kRejected);
  const Proposal* p = f.dao.find(id.value());
  EXPECT_DOUBLE_EQ(p->tally.yes, 19.0);
  EXPECT_DOUBLE_EQ(p->tally.no, 28.0);
  // Same ballots under 1m1v would have rejected even harder; under tokens the
  // whales almost flipped it — the plutocracy lever is visible in the tally.
}

TEST(VotingSchemes, QuadraticChargesSquaredCost) {
  DaoFixture f(std::make_shared<QuadraticVoting>());
  auto a = f.dao.propose(AccountId(1), ModuleId(0), "a", 0);
  ASSERT_TRUE(a.ok());
  // Intensity 6 costs 36 of the default 100 credits.
  ASSERT_TRUE(f.dao.cast_vote(a.value(), AccountId(2), VoteChoice::kYes, 1, 6.0).ok());
  EXPECT_NEAR(f.dao.members().find(AccountId(2))->voice_credits, 64.0, 1e-9);
  // Another intensity-9 ballot needs 81 > 64 and must fail.
  auto b = f.dao.propose(AccountId(1), ModuleId(0), "b", 0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(f.dao.cast_vote(b.value(), AccountId(2), VoteChoice::kYes, 1, 9.0).error().code,
            "dao.no_credits");
  EXPECT_EQ(f.dao.cast_vote(b.value(), AccountId(2), VoteChoice::kYes, 1, -1.0).error().code,
            "dao.bad_intensity");
}

TEST(VotingSchemes, ReputationWeighted) {
  DaoFixture f(std::make_shared<ReputationWeighted>());
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "rep", 0);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(10), VoteChoice::kYes, 1).ok());
  ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(1), VoteChoice::kNo, 1).ok());
  ASSERT_TRUE(f.dao.finalize(id.value(), 100).ok());
  const Proposal* p = f.dao.find(id.value());
  EXPECT_DOUBLE_EQ(p->tally.yes, 10.0);
  EXPECT_DOUBLE_EQ(p->tally.no, 1.0);
}

TEST(VotingSchemes, DelegatedWeightFlowsToVoter) {
  DaoFixture f(std::make_shared<DelegatedVoting>());
  // 1..4 delegate (transitively) to 5, who votes yes; 6 votes no.
  f.dao.members().set_delegate(AccountId(1), AccountId(2));
  f.dao.members().set_delegate(AccountId(2), AccountId(5));
  f.dao.members().set_delegate(AccountId(3), AccountId(5));
  f.dao.members().set_delegate(AccountId(4), AccountId(5));
  auto id = f.dao.propose(AccountId(5), ModuleId(0), "liquid", 0);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(5), VoteChoice::kYes, 1).ok());
  ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(6), VoteChoice::kNo, 1).ok());
  ASSERT_TRUE(f.dao.finalize(id.value(), 100).ok());
  const Proposal* p = f.dao.find(id.value());
  // 5's own vote + 4 delegated units = 5 yes; 1 no.
  EXPECT_DOUBLE_EQ(p->tally.yes, 5.0);
  EXPECT_DOUBLE_EQ(p->tally.no, 1.0);
}

TEST(VotingSchemes, DelegatorWhoVotesDirectlyKeepsOwnWeight) {
  DaoFixture f(std::make_shared<DelegatedVoting>());
  f.dao.members().set_delegate(AccountId(1), AccountId(5));
  auto id = f.dao.propose(AccountId(5), ModuleId(0), "override", 0);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(5), VoteChoice::kYes, 1).ok());
  // 1 overrides their delegation by voting no directly.
  ASSERT_TRUE(f.dao.cast_vote(id.value(), AccountId(1), VoteChoice::kNo, 1).ok());
  ASSERT_TRUE(f.dao.finalize(id.value(), 100).ok());
  const Proposal* p = f.dao.find(id.value());
  EXPECT_DOUBLE_EQ(p->tally.yes, 1.0);
  EXPECT_DOUBLE_EQ(p->tally.no, 1.0);
}

TEST(VotingSchemes, SortitionJuryRestrictsVoters) {
  DaoFixture f(std::make_shared<SortitionJury>(3));
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "jury duty", 0);
  ASSERT_TRUE(id.ok());
  const Proposal* p = f.dao.find(id.value());
  ASSERT_EQ(p->jury.size(), 3u);
  std::size_t accepted = 0, rejected = 0;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    const auto s = f.dao.cast_vote(id.value(), AccountId(i), VoteChoice::kYes, 1);
    if (s.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(s.error().code, "dao.not_on_jury");
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 3u);
  EXPECT_EQ(rejected, 7u);
  ASSERT_TRUE(f.dao.finalize(id.value(), 100).ok());
  EXPECT_DOUBLE_EQ(f.dao.find(id.value())->tally.eligible_weight, 3.0);
}

// Property: no scheme ever double-counts, and turnout never exceeds 1.
class SchemeInvariantTest
    : public ::testing::TestWithParam<std::shared_ptr<const VotingScheme>> {};

TEST_P(SchemeInvariantTest, TurnoutBoundedAndBallotsMatchVoters) {
  DaoConfig config{0.0, 0.5, 100, GetParam()};
  Dao dao(config, Rng(7));
  Rng rng(99);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(dao.members()
                    .add(make_member(i, 1 + rng.next_below(20),
                                     rng.uniform(0.0, 5.0)))
                    .ok());
  }
  auto id = dao.propose(AccountId(1), ModuleId(0), "p", 0);
  ASSERT_TRUE(id.ok());
  std::size_t cast = 0;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    const auto choice = static_cast<VoteChoice>(rng.next_below(3));
    if (dao.cast_vote(id.value(), AccountId(i), choice, 1).ok()) ++cast;
  }
  ASSERT_TRUE(dao.finalize(id.value(), 100).ok());
  const Proposal* p = dao.find(id.value());
  EXPECT_EQ(p->ballots.size(), cast);
  EXPECT_LE(p->tally.turnout(), 1.0 + 1e-9);
  EXPECT_GE(p->tally.yes, 0.0);
  EXPECT_GE(p->tally.no, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeInvariantTest,
    ::testing::Values(std::make_shared<OneMemberOneVote>(),
                      std::make_shared<TokenWeighted>(),
                      std::make_shared<QuadraticVoting>(),
                      std::make_shared<ReputationWeighted>(),
                      std::make_shared<SortitionJury>(10)));

// ------------------------------------------------------------ commit-reveal

struct SealedFixture {
  Dao dao;

  SealedFixture()
      : dao(make_config(), Rng(77)) {
    for (std::uint64_t i = 1; i <= 10; ++i) {
      EXPECT_TRUE(dao.members().add(make_member(i)).ok());
    }
  }

  static DaoConfig make_config() {
    DaoConfig c;
    c.voting_period = 100;
    c.commit_reveal = true;
    c.reveal_period = 50;
    return c;
  }
};

TEST(CommitReveal, FullSealedLifecycle) {
  SealedFixture f;
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "sealed", 0);
  ASSERT_TRUE(id.ok());
  // Commit window: voters file commitments; direct casting is rejected.
  EXPECT_EQ(f.dao.cast_vote(id.value(), AccountId(1), VoteChoice::kYes, 1).error().code,
            "dao.sealed_ballots");
  for (std::uint64_t i = 1; i <= 6; ++i) {
    const auto c = Dao::make_commitment(VoteChoice::kYes, 1000 + i, AccountId(i));
    ASSERT_TRUE(f.dao.commit_vote(id.value(), AccountId(i), c, 10).ok());
  }
  const auto c7 = Dao::make_commitment(VoteChoice::kNo, 7777, AccountId(7));
  ASSERT_TRUE(f.dao.commit_vote(id.value(), AccountId(7), c7, 10).ok());

  // Reveals are rejected while the commit window is still open.
  EXPECT_EQ(f.dao.reveal_vote(id.value(), AccountId(1), VoteChoice::kYes, 1001, 50)
                .error()
                .code,
            "dao.reveal_closed");
  // Finalize is rejected until the reveal window closes.
  EXPECT_EQ(f.dao.finalize(id.value(), 120).error().code, "dao.voting_open");

  // Reveal window: matching reveals count; a mismatched salt is rejected.
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(f.dao.reveal_vote(id.value(), AccountId(i), VoteChoice::kYes,
                                  1000 + i, 110).ok());
  }
  EXPECT_EQ(f.dao.reveal_vote(id.value(), AccountId(7), VoteChoice::kNo, 1, 110)
                .error()
                .code,
            "dao.bad_reveal");
  // Lying about the choice also fails (choice is inside the hash).
  EXPECT_EQ(f.dao.reveal_vote(id.value(), AccountId(7), VoteChoice::kYes, 7777, 110)
                .error()
                .code,
            "dao.bad_reveal");

  auto status = f.dao.finalize(id.value(), 150);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value(), ProposalStatus::kPassed);
  const Proposal* p = f.dao.find(id.value());
  // Only the 6 revealed ballots count; 7's unrevealed commitment is void.
  EXPECT_DOUBLE_EQ(p->tally.yes, 6.0);
  EXPECT_DOUBLE_EQ(p->tally.no, 0.0);
}

TEST(CommitReveal, GuardsWindowsAndMembership) {
  SealedFixture f;
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "sealed", 0);
  ASSERT_TRUE(id.ok());
  const auto c = Dao::make_commitment(VoteChoice::kYes, 5, AccountId(2));
  // Non-member cannot commit.
  EXPECT_EQ(f.dao.commit_vote(id.value(), AccountId(99), c, 10).error().code,
            "dao.not_a_member");
  ASSERT_TRUE(f.dao.commit_vote(id.value(), AccountId(2), c, 10).ok());
  // Double commitment rejected.
  EXPECT_EQ(f.dao.commit_vote(id.value(), AccountId(2), c, 11).error().code,
            "dao.double_vote");
  // Commit after the voting window is rejected.
  EXPECT_EQ(f.dao.commit_vote(id.value(), AccountId(3), c, 100).error().code,
            "dao.voting_closed");
  // Reveal without a commitment is rejected.
  EXPECT_EQ(f.dao.reveal_vote(id.value(), AccountId(3), VoteChoice::kYes, 5, 110)
                .error()
                .code,
            "dao.no_commitment");
  // Reveal after the reveal window is rejected.
  EXPECT_EQ(f.dao.reveal_vote(id.value(), AccountId(2), VoteChoice::kYes, 5, 160)
                .error()
                .code,
            "dao.reveal_closed");
}

TEST(CommitReveal, PlainDaoRejectsSealedCalls) {
  DaoFixture f;  // plain voting
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "plain", 0);
  ASSERT_TRUE(id.ok());
  const auto c = Dao::make_commitment(VoteChoice::kYes, 5, AccountId(2));
  EXPECT_EQ(f.dao.commit_vote(id.value(), AccountId(2), c, 10).error().code,
            "dao.not_sealed");
  EXPECT_EQ(f.dao.reveal_vote(id.value(), AccountId(2), VoteChoice::kYes, 5, 110)
                .error()
                .code,
            "dao.not_sealed");
}

TEST(CommitReveal, CommitmentBindsVoterIdentity) {
  // The same (choice, salt) hashes differently for different voters, so a
  // copied commitment cannot be replayed by another member.
  const auto a = Dao::make_commitment(VoteChoice::kYes, 42, AccountId(1));
  const auto b = Dao::make_commitment(VoteChoice::kYes, 42, AccountId(2));
  EXPECT_NE(a, b);

  SealedFixture f;
  auto id = f.dao.propose(AccountId(1), ModuleId(0), "replay", 0);
  ASSERT_TRUE(id.ok());
  // Member 2 copies member 1's commitment...
  ASSERT_TRUE(f.dao.commit_vote(id.value(), AccountId(1), a, 10).ok());
  ASSERT_TRUE(f.dao.commit_vote(id.value(), AccountId(2), a, 10).ok());
  // ...but cannot produce a matching reveal for it.
  EXPECT_TRUE(f.dao.reveal_vote(id.value(), AccountId(1), VoteChoice::kYes, 42, 110).ok());
  EXPECT_EQ(f.dao.reveal_vote(id.value(), AccountId(2), VoteChoice::kYes, 42, 110)
                .error()
                .code,
            "dao.bad_reveal");
}

// ------------------------------------------------------------ federated

struct FederatedFixture {
  FederatedConfig config;
  FederatedDao fed;
  ModuleId privacy;
  ModuleId economy;

  FederatedFixture() : fed(make_config(), Rng(11)) {
    privacy = fed.create_module("privacy");
    economy = fed.create_module("economy");
    for (std::uint64_t i = 1; i <= 20; ++i) {
      EXPECT_TRUE(fed.enroll(make_member(i)).ok());
    }
    // Members 1..5 sit on the privacy committee, 6..10 on economy.
    for (std::uint64_t i = 1; i <= 5; ++i) {
      EXPECT_TRUE(fed.subscribe(AccountId(i), privacy).ok());
    }
    for (std::uint64_t i = 6; i <= 10; ++i) {
      EXPECT_TRUE(fed.subscribe(AccountId(i), economy).ok());
    }
  }

  static FederatedConfig make_config() {
    FederatedConfig c;
    c.module_config = DaoConfig{0.2, 0.5, 100, std::make_shared<OneMemberOneVote>()};
    c.global_config = DaoConfig{0.1, 0.5, 100, std::make_shared<OneMemberOneVote>()};
    c.escalation_margin = 0.25;
    return c;
  }
};

TEST(FederatedDao, RoutesToModuleCommittee) {
  FederatedFixture f;
  auto id = f.fed.propose(AccountId(1), f.privacy, "tighten PETs", 0);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(f.fed.is_module_scoped(id.value()));
  // Only committee members may vote.
  EXPECT_TRUE(f.fed.cast_vote(id.value(), AccountId(2), VoteChoice::kYes, 1).ok());
  EXPECT_EQ(f.fed.cast_vote(id.value(), AccountId(7), VoteChoice::kYes, 1).error().code,
            "dao.not_a_member");
}

TEST(FederatedDao, NonSubscriberProposalsGoGlobal) {
  FederatedFixture f;
  // Member 15 is enrolled but on no committee.
  auto id = f.fed.propose(AccountId(15), f.privacy, "outsider", 0);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(f.fed.is_module_scoped(id.value()));
  // Everyone enrolled can vote on a global proposal.
  EXPECT_TRUE(f.fed.cast_vote(id.value(), AccountId(19), VoteChoice::kYes, 1).ok());
}

TEST(FederatedDao, ClearModuleDecisionDoesNotEscalate) {
  FederatedFixture f;
  auto id = f.fed.propose(AccountId(1), f.privacy, "clear", 0);
  ASSERT_TRUE(id.ok());
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(f.fed.cast_vote(id.value(), AccountId(i), VoteChoice::kYes, 1).ok());
  }
  auto outcome = f.fed.finalize(id.value(), 100);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().status, ProposalStatus::kPassed);
  EXPECT_FALSE(outcome.value().escalated_to.has_value());
  EXPECT_EQ(f.fed.escalations(), 0u);
}

TEST(FederatedDao, ContestedModuleDecisionEscalates) {
  FederatedFixture f;
  auto id = f.fed.propose(AccountId(1), f.privacy, "contested", 0);
  ASSERT_TRUE(id.ok());
  // 3 yes vs 2 no → margin 0.2 < 0.25 → escalate.
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(f.fed.cast_vote(id.value(), AccountId(i), VoteChoice::kYes, 1).ok());
  }
  for (std::uint64_t i = 4; i <= 5; ++i) {
    ASSERT_TRUE(f.fed.cast_vote(id.value(), AccountId(i), VoteChoice::kNo, 1).ok());
  }
  auto outcome = f.fed.finalize(id.value(), 100);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.value().escalated_to.has_value());
  EXPECT_EQ(f.fed.escalations(), 1u);
  const ProposalId global_id = *outcome.value().escalated_to;
  EXPECT_FALSE(f.fed.is_module_scoped(global_id));
  // The escalated proposal accepts votes from any enrolled member.
  EXPECT_TRUE(f.fed.cast_vote(global_id, AccountId(17), VoteChoice::kNo, 101).ok());
}

TEST(FederatedDao, PerMemberLoadBelowFlatEquivalent) {
  // The E2 claim in miniature: with proposals spread over two 5-member
  // committees, ballot requests per enrolled member stay far below a flat
  // DAO that asks all 20 members for every proposal.
  FederatedFixture f;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(f.fed.propose(AccountId(1), f.privacy, "p", 0).ok());
    ASSERT_TRUE(f.fed.propose(AccountId(6), f.economy, "e", 0).ok());
  }
  // Flat equivalent: 20 proposals x 20 members = 400 requests, 20 per member.
  // Federated: 20 proposals x 5-member committees = 100 requests, 5 per member.
  EXPECT_EQ(f.fed.total_ballot_requests(), 100u);
  EXPECT_DOUBLE_EQ(f.fed.avg_requests_per_member(), 5.0);
}

// ------------------------------------------------------------ contract

struct ContractFixture {
  Rng rng{55};
  std::shared_ptr<ledger::ContractRegistry> contracts =
      std::make_shared<ledger::ContractRegistry>();
  crypto::Wallet w0{rng}, w1{rng}, w2{rng};
  ledger::LedgerState state;
  DaoContractConfig config;

  ContractFixture() {
    config.voting_period_blocks = 10;
    contracts->install(std::make_shared<DaoContract>(config));
    for (const auto* w : {&w0, &w1, &w2}) state.credit(w->address(), 100);
  }

  Status call(const crypto::Wallet& w, const std::string& method, Bytes args,
              Tick height) {
    const auto tx = ledger::make_contract_call(
        w, state.nonce(w.address()), "dao", method, std::move(args), 0, rng);
    return state.apply(tx, *contracts, height);
  }
};

TEST(DaoContract, FullLifecycleOnChain) {
  ContractFixture f;
  ASSERT_TRUE(f.call(f.w0, "join", {}, 0).ok());
  ASSERT_TRUE(f.call(f.w1, "join", {}, 0).ok());
  ASSERT_TRUE(f.call(f.w2, "join", {}, 0).ok());
  EXPECT_EQ(DaoContract::member_count(f.state, "dao"), 3u);

  ASSERT_TRUE(f.call(f.w0, "propose", DaoContract::encode_propose("mint cap"), 1).ok());
  EXPECT_EQ(DaoContract::proposal_count(f.state, "dao"), 1u);

  ASSERT_TRUE(f.call(f.w0, "vote", DaoContract::encode_vote(0, 0), 2).ok());
  ASSERT_TRUE(f.call(f.w1, "vote", DaoContract::encode_vote(0, 0), 3).ok());
  ASSERT_TRUE(f.call(f.w2, "vote", DaoContract::encode_vote(0, 1), 3).ok());

  // Too early to finalize.
  EXPECT_EQ(f.call(f.w0, "finalize", DaoContract::encode_finalize(0), 5).error().code,
            "dao.voting_open");
  ASSERT_TRUE(f.call(f.w0, "finalize", DaoContract::encode_finalize(0), 11).ok());

  auto view = DaoContract::proposal(f.state, "dao", 0);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().status, OnChainStatus::kPassed);
  EXPECT_EQ(view.value().yes, 2u);
  EXPECT_EQ(view.value().no, 1u);
  EXPECT_EQ(view.value().author, f.w0.address());
}

TEST(DaoContract, GuardsMembershipAndDoubleVotes) {
  ContractFixture f;
  ASSERT_TRUE(f.call(f.w0, "join", {}, 0).ok());
  EXPECT_EQ(f.call(f.w0, "join", {}, 0).error().code, "dao.already_member");
  EXPECT_EQ(f.call(f.w1, "propose", DaoContract::encode_propose("x"), 0).error().code,
            "dao.not_a_member");
  ASSERT_TRUE(f.call(f.w0, "propose", DaoContract::encode_propose("x"), 0).ok());
  ASSERT_TRUE(f.call(f.w0, "vote", DaoContract::encode_vote(0, 2), 1).ok());
  EXPECT_EQ(f.call(f.w0, "vote", DaoContract::encode_vote(0, 0), 1).error().code,
            "dao.double_vote");
  EXPECT_EQ(f.call(f.w0, "vote", DaoContract::encode_vote(9, 0), 1).error().code,
            "dao.no_such_proposal");
}

TEST(DaoContract, VotingClosesAfterPeriod) {
  ContractFixture f;
  ASSERT_TRUE(f.call(f.w0, "join", {}, 0).ok());
  ASSERT_TRUE(f.call(f.w0, "propose", DaoContract::encode_propose("x"), 0).ok());
  EXPECT_EQ(f.call(f.w0, "vote", DaoContract::encode_vote(0, 0), 10).error().code,
            "dao.voting_closed");
}

TEST(DaoContract, FailedCallLeavesNoTrace) {
  ContractFixture f;
  ASSERT_TRUE(f.call(f.w0, "join", {}, 0).ok());
  const auto root = f.state.commitment().root;
  EXPECT_FALSE(f.call(f.w0, "vote", DaoContract::encode_vote(0, 0), 1).ok());
  EXPECT_EQ(f.state.commitment().root, root);
}

TEST(DaoContract, TokenWeightedBallotsFollowBalances) {
  Rng rng(66);
  auto contracts = std::make_shared<ledger::ContractRegistry>();
  DaoContractConfig config;
  config.name = "tdao";
  config.voting_period_blocks = 10;
  config.quorum = 0.2;
  config.token_weighted = true;
  contracts->install(std::make_shared<DaoContract>(config));

  crypto::Wallet whale(rng), minnow1(rng), minnow2(rng);
  ledger::LedgerState state;
  state.credit(whale.address(), 10'000);
  state.credit(minnow1.address(), 100);
  state.credit(minnow2.address(), 100);

  auto call = [&](const crypto::Wallet& w, const std::string& method,
                  Bytes args, Tick height) {
    const auto tx = ledger::make_contract_call(
        w, state.nonce(w.address()), "tdao", method, std::move(args), 0, rng);
    return state.apply(tx, *contracts, height);
  };
  ASSERT_TRUE(call(whale, "join", {}, 0).ok());
  ASSERT_TRUE(call(minnow1, "join", {}, 0).ok());
  ASSERT_TRUE(call(minnow2, "join", {}, 0).ok());
  ASSERT_TRUE(call(whale, "propose", DaoContract::encode_propose("plutocracy"), 1).ok());
  // Whale yes vs two minnows no: token weight decides.
  ASSERT_TRUE(call(whale, "vote", DaoContract::encode_vote(0, 0), 2).ok());
  ASSERT_TRUE(call(minnow1, "vote", DaoContract::encode_vote(0, 1), 2).ok());
  ASSERT_TRUE(call(minnow2, "vote", DaoContract::encode_vote(0, 1), 2).ok());
  ASSERT_TRUE(call(whale, "finalize", DaoContract::encode_finalize(0), 11).ok());

  const auto view = DaoContract::proposal(state, "tdao", 0).value();
  EXPECT_EQ(view.status, OnChainStatus::kPassed);
  EXPECT_EQ(view.yes, 10'000u);
  EXPECT_EQ(view.no, 200u);
  // The same ballots under flat 1m1v (ContractFixture's "dao") would reject:
  // that contrast is the §III-B plutocracy concern, executable.
}

/// A token-weighted "tdao" over a bare LedgerState, calls at fee 0.
struct TokenDaoFixture {
  Rng rng{67};
  std::shared_ptr<ledger::ContractRegistry> contracts =
      std::make_shared<ledger::ContractRegistry>();
  ledger::LedgerState state;

  TokenDaoFixture() {
    DaoContractConfig config;
    config.name = "tdao";
    config.voting_period_blocks = 10;
    config.quorum = 0.2;
    config.token_weighted = true;
    contracts->install(std::make_shared<DaoContract>(config));
  }

  Status apply(const ledger::Transaction& tx, Tick height) {
    return state.apply(tx, *contracts, height);
  }
  Status call(const crypto::Wallet& w, const std::string& method, Bytes args,
              Tick height) {
    return apply(ledger::make_contract_call(w, state.nonce(w.address()), "tdao",
                                            method, std::move(args), 0, rng),
                 height);
  }
};

TEST(DaoContract, TokenWeightedTallySaturates) {
  // Flash stake: the same 2^63 coins vote yes, move, and vote yes again. The
  // true yes weight is 2^64; a wrapping tally would read 0 and lose to the
  // single no coin-holder, a saturating one keeps yes ahead.
  TokenDaoFixture f;
  const crypto::Wallet a(f.rng), b(f.rng), c(f.rng);
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  f.state.credit(a.address(), kHalf);
  f.state.credit(b.address(), 0);
  f.state.credit(c.address(), 100);
  for (const auto* w : {&a, &b, &c}) ASSERT_TRUE(f.call(*w, "join", {}, 0).ok());
  ASSERT_TRUE(f.call(a, "propose", DaoContract::encode_propose("flash"), 1).ok());
  ASSERT_TRUE(f.call(a, "vote", DaoContract::encode_vote(0, 0), 2).ok());
  ASSERT_TRUE(f.apply(ledger::make_transfer(a, f.state.nonce(a.address()),
                                            b.address(), kHalf, 0, f.rng),
                      2)
                  .ok());
  ASSERT_GE(f.state.balance(b.address()), kHalf);
  ASSERT_TRUE(f.call(b, "vote", DaoContract::encode_vote(0, 0), 3).ok());
  ASSERT_TRUE(f.call(c, "vote", DaoContract::encode_vote(0, 1), 3).ok());
  ASSERT_TRUE(f.call(c, "finalize", DaoContract::encode_finalize(0), 11).ok());

  const auto view = DaoContract::proposal(f.state, "tdao", 0).value();
  EXPECT_EQ(view.status, OnChainStatus::kPassed);
  EXPECT_EQ(view.yes, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(view.no, 100u);
  EXPECT_EQ(view.voters, 3u);
}

TEST(DaoContract, WhaleAloneCannotMeetQuorum) {
  // Quorum is a head count of members, not a share of weight: one voter of
  // ten holding 99% of the coins is 10% turnout, under the 20% quorum.
  TokenDaoFixture f;
  const crypto::Wallet whale(f.rng);
  f.state.credit(whale.address(), 89'100);
  ASSERT_TRUE(f.call(whale, "join", {}, 0).ok());
  for (int i = 0; i < 9; ++i) {
    const crypto::Wallet minnow(f.rng);
    f.state.credit(minnow.address(), 100);
    ASSERT_TRUE(f.call(minnow, "join", {}, 0).ok());
  }
  ASSERT_EQ(DaoContract::member_count(f.state, "tdao"), 10u);
  ASSERT_TRUE(f.call(whale, "propose", DaoContract::encode_propose("capture"), 1).ok());
  ASSERT_TRUE(f.call(whale, "vote", DaoContract::encode_vote(0, 0), 2).ok());
  ASSERT_TRUE(f.call(whale, "finalize", DaoContract::encode_finalize(0), 11).ok());

  const auto view = DaoContract::proposal(f.state, "tdao", 0).value();
  EXPECT_EQ(view.yes, 89'100u);
  EXPECT_EQ(view.voters, 1u);
  EXPECT_EQ(view.status, OnChainStatus::kRejected);
}

TEST(DaoContract, WorksThroughConsensus) {
  // End-to-end: DAO actions as transactions through the BFT committee.
  ContractFixture f;
  SimClock clock;
  net::Network network(clock, Rng(77),
                       net::LinkParams{.base_latency = 1.0, .jitter = 1.0, .drop_rate = 0.0});
  ledger::ValidatorCommittee committee(network, 4, f.contracts, f.state, 32, f.rng);

  auto submit = [&](const crypto::Wallet& w, const std::string& method,
                    Bytes args, std::uint64_t nonce) {
    committee.submit(ledger::make_contract_call(w, nonce, "dao", method,
                                                std::move(args), 0, f.rng));
  };
  submit(f.w0, "join", {}, 0);
  submit(f.w1, "join", {}, 0);
  ASSERT_TRUE(committee.run_round());
  submit(f.w0, "propose", DaoContract::encode_propose("on-chain"), 1);
  ASSERT_TRUE(committee.run_round());
  submit(f.w0, "vote", DaoContract::encode_vote(0, 0), 2);
  submit(f.w1, "vote", DaoContract::encode_vote(0, 0), 1);
  ASSERT_TRUE(committee.run_round());
  EXPECT_TRUE(committee.replicas_consistent());
  auto view = DaoContract::proposal(committee.chain(3).state(), "dao", 0);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().yes, 2u);
}

}  // namespace
}  // namespace mv::dao
