#pragma once

#include <optional>

#include "core/process.hpp"

/// \file broadcast_algorithm.hpp
/// Shared machinery for broadcast processes.
///
/// Every algorithm in this library is a function of (id, n, the round the
/// process first received the broadcast token, the current round, private
/// randomness). TokenProcess tracks activation and token state so concrete
/// algorithms only implement the (pure) sending schedule.

namespace dualrad {

/// Base for broadcast processes: tracks when the process woke up and when it
/// first received the broadcast token. `next_action` remains pure in derived
/// classes because all evolving state lives here and changes only in
/// on_activate / on_receive.
class TokenProcess : public Process {
 public:
  void on_activate(Round round, const std::optional<Message>& initial) final {
    DUALRAD_CHECK(activation_round_ == kNever, "double activation");
    activation_round_ = round;
    if (initial.has_value() && initial->token) token_round_ = round;
  }

  void on_receive(Round round, const Reception& reception) override {
    if (reception.has_token() && token_round_ == kNever) token_round_ = round;
  }

 protected:
  using Process::Process;
  TokenProcess(const TokenProcess&) = default;

  /// Round at which the process was activated; kNever before activation.
  [[nodiscard]] Round activation_round() const { return activation_round_; }
  /// Round at whose end the token first arrived (0 for the source);
  /// kNever if the process does not hold the token yet.
  [[nodiscard]] Round token_round() const { return token_round_; }
  [[nodiscard]] bool has_token() const { return token_round_ != kNever; }

  /// The hearing() answer of a class whose state is exactly the one kept
  /// here: silence is a no-op, and once the token is held every reception
  /// is. Not the base's default, since a subclass that tracks receptions of
  /// its own (the test Recorder, say) must keep hearing them.
  [[nodiscard]] Hearing token_hearing() const {
    return has_token() ? Hearing::None : Hearing::NonSilence;
  }

 private:
  Round activation_round_ = kNever;
  Round token_round_ = kNever;
};

}  // namespace dualrad
