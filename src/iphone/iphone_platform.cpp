#include "iphone/iphone_platform.h"

#include "support/strings.h"

namespace mobivine::iphone {

IPhonePlatform::IPhonePlatform(device::MobileDevice& device,
                               IPhoneApiCost cost)
    : device_(device), cost_(cost) {}

IPhonePlatform::~IPhonePlatform() { *alive_ = false; }

void IPhonePlatform::FinishComposer(ComposerOutcome outcome,
                                    const ComposerObserver& on_finish) {
  composer_outcome_ = outcome;
  if (on_finish) on_finish(outcome);
}

bool IPhonePlatform::openURL(const std::string& url, const std::string& body,
                             ComposerObserver on_finish) {
  const bool is_sms = support::StartsWith(url, "sms:");
  const bool is_tel = support::StartsWith(url, "tel:");
  if (!is_sms && !is_tel) return false;  // UIKit: unhandled scheme -> NO
  const std::string number = url.substr(4);
  if (number.empty()) return false;

  device_.scheduler().AdvanceBy(cost_.open_url.Sample(device_.rng()));
  composer_outcome_ = ComposerOutcome::kNone;

  // The system composer takes over; the user decides after a think time.
  const sim::SimTime think = cost_.user_confirmation.Sample(device_.rng());
  std::weak_ptr<bool> alive = alive_;
  device_.scheduler().ScheduleAfter(
      think, [this, alive, is_sms, number, body,
              on_finish = std::move(on_finish)] {
        auto locked = alive.lock();
        if (!locked || !*locked) return;
        if (!user_confirms_compose_) {
          FinishComposer(ComposerOutcome::kCancelled, on_finish);
          return;
        }
        if (is_sms) {
          device_.modem().SendSms(
              number, body,
              [this, alive, on_finish](const device::SmsResult& result) {
                auto still = alive.lock();
                if (!still || !*still) return;
                if (result.status == device::SmsStatus::kSent) {
                  FinishComposer(ComposerOutcome::kSent, on_finish);
                } else if (result.status != device::SmsStatus::kDelivered) {
                  FinishComposer(ComposerOutcome::kFailed, on_finish);
                }
              });
        } else {
          const bool started = device_.modem().Dial(number, nullptr);
          FinishComposer(
              started ? ComposerOutcome::kSent : ComposerOutcome::kFailed,
              on_finish);
        }
      });
  return true;
}

IPhonePlatform::NSURLResponse IPhonePlatform::sendSynchronousRequest(
    const std::string& method, const std::string& url, const std::string& body,
    const std::string& content_type, NSError& error,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  error = NSError::None();
  NSURLResponse out;
  auto parsed = device::ParseUrl(url);
  if (!parsed) {
    error = {kNSURLErrorDomain, kNSURLErrorBadURL, "bad URL: " + url};
    return out;
  }
  device_.scheduler().AdvanceBy(cost_.nsurl_framework.Sample(device_.rng()));

  device::HttpRequest request;
  request.method = method;
  request.url = *parsed;
  request.body = body;
  for (const auto& [name, value] : headers) {
    request.headers.Set(name, value);
  }
  if (!content_type.empty()) {
    request.headers.Set("Content-Type", content_type);
  }
  const device::NetResult result = device_.network().BlockingSend(request);
  switch (result.error) {
    case device::NetError::kHostUnreachable:
      error = {kNSURLErrorDomain, kNSURLErrorCannotFindHost,
               "cannot find host: " + parsed->host};
      return out;
    case device::NetError::kTimeout:
      error = {kNSURLErrorDomain, kNSURLErrorTimedOut,
               "the request timed out"};
      return out;
    case device::NetError::kNone:
      break;
  }
  out.status_code = result.response.status;
  out.body = result.response.body;
  return out;
}

}  // namespace mobivine::iphone
