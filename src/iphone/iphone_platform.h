// The iPhone OS (2009) platform substrate — the paper's §7 future-work
// platform, added here to exercise MobiVine's extension story: "if the
// semantic and syntactic planes already exist for other platforms, one
// requires to publish only the binding artifacts … for a new platform."
//
// 2009 platform realities modeled:
//  * Location: delegate-streaming CoreLocation, user-authorization prompt,
//    NO region monitoring (see core_location.h).
//  * SMS / calls: NO programmatic send — applications open "sms:" / "tel:"
//    URLs via UIApplication openURL:, the system UI takes over and the
//    user confirms. Modeled with a confirmation latency and a
//    user-approval flag; no delivery reports of any kind.
//  * HTTP: NSURLConnection sendSynchronousRequest (blocking, NSError out).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "device/mobile_device.h"
#include "iphone/core_location.h"
#include "iphone/exceptions.h"
#include "sim/latency_model.h"

namespace mobivine::iphone {

/// Figure-10-style calibration for the iPhone substrate. The paper has no
/// iPhone measurements; these are plausibility values documented in
/// EXPERIMENTS.md §Extension and exercised by the extension tests/benches.
struct IPhoneApiCost {
  /// CoreLocation fix cadence once updating.
  sim::SimTime location_update_interval = sim::SimTime::Millis(1000);
  /// System authorization prompt (user think time) on first location use.
  sim::LatencyModel authorization_prompt =
      sim::LatencyModel::UniformIn(sim::SimTime::Millis(800),
                                   sim::SimTime::Millis(2500));
  /// openURL context switch into the system SMS/phone UI.
  sim::LatencyModel open_url =
      sim::LatencyModel::Normal(sim::SimTime::MillisF(60.0),
                                sim::SimTime::MillisF(5.0),
                                sim::SimTime::MillisF(30.0));
  /// User confirming the sms:/tel: composer.
  sim::LatencyModel user_confirmation =
      sim::LatencyModel::UniformIn(sim::SimTime::Millis(900),
                                   sim::SimTime::Millis(3000));
  sim::LatencyModel nsurl_framework =
      sim::LatencyModel::Normal(sim::SimTime::MillisF(10.0),
                                sim::SimTime::MillisF(1.0),
                                sim::SimTime::MillisF(5.0));
  /// ABAddressBookCopyArrayOfAllPeople.
  sim::LatencyModel ab_copy_all =
      sim::LatencyModel::Normal(sim::SimTime::MillisF(12.0),
                                sim::SimTime::MillisF(1.0),
                                sim::SimTime::MillisF(6.0));
};

class IPhonePlatform {
 public:
  explicit IPhonePlatform(device::MobileDevice& device, IPhoneApiCost cost = {});
  ~IPhonePlatform();

  IPhonePlatform(const IPhonePlatform&) = delete;
  IPhonePlatform& operator=(const IPhonePlatform&) = delete;

  device::MobileDevice& device() { return device_; }
  const IPhoneApiCost& cost() const { return cost_; }

  // --- user consent switches (the system dialogs) -------------------------
  void set_user_allows_location(bool allow) { user_allows_location_ = allow; }
  bool user_allows_location() const { return user_allows_location_; }
  void set_user_confirms_compose(bool confirm) {
    user_confirms_compose_ = confirm;
  }
  bool user_confirms_compose() const { return user_confirms_compose_; }

  // --- UIApplication openURL: ---------------------------------------------
  /// Completion of the last openURL-driven action, observable by tests and
  /// by bindings that poll (kNone until the user decides).
  enum class ComposerOutcome { kNone, kSent, kCancelled, kFailed };
  using ComposerObserver = std::function<void(ComposerOutcome)>;

  /// Open an "sms:+number" or "tel:+number" URL: switches to the system
  /// UI, waits for the user, and (if confirmed) hands the action to the
  /// modem. Returns NO for malformed/unsupported URLs (UIKit contract).
  /// `body` is the prefilled SMS text (the app cannot send silently).
  /// `on_finish`, when set, hears this session's outcome, so sessions
  /// that overlap each report their own.
  bool openURL(const std::string& url, const std::string& body = "",
               ComposerObserver on_finish = {});

  ComposerOutcome last_composer_outcome() const { return composer_outcome_; }

  // --- NSURLConnection sendSynchronousRequest ------------------------------
  struct NSURLResponse {
    int status_code = 0;
    std::string body;
  };
  /// Blocking HTTP. On failure the response is empty and `error` is set
  /// (NSError-out-parameter style, no exceptions). `headers` models the
  /// NSMutableURLRequest setValue:forHTTPHeaderField: calls.
  NSURLResponse sendSynchronousRequest(
      const std::string& method, const std::string& url,
      const std::string& body, const std::string& content_type,
      NSError& error,
      const std::vector<std::pair<std::string, std::string>>& headers = {});

  std::shared_ptr<bool> alive_token() const { return alive_; }

 private:
  void FinishComposer(ComposerOutcome outcome,
                      const ComposerObserver& on_finish);

  device::MobileDevice& device_;
  IPhoneApiCost cost_;
  bool user_allows_location_ = true;
  bool user_confirms_compose_ = true;
  ComposerOutcome composer_outcome_ = ComposerOutcome::kNone;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace mobivine::iphone
