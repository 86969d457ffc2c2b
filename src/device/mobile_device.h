// The simulated handset: one scheduler, one RNG, and the three hardware
// blocks every platform substrate binds to.
//
// A MobileDevice is the unit of experiment setup — construct one, give the
// GPS a track, register network hosts and phone subscribers, then boot a
// platform (android::AndroidPlatform, s60::S60Platform or
// webview::WebViewPlatform) on top of it.
#pragma once

#include <cstdint>
#include <string>

#include "device/calendar_store.h"
#include "device/cellular_modem.h"
#include "device/contact_database.h"
#include "device/gps_receiver.h"
#include "device/network.h"
#include "sim/random.h"
#include "sim/scheduler.h"

namespace mobivine::device {

struct DeviceConfig {
  std::uint64_t seed = 42;
  std::string own_number = "+15550100";
  GpsConfig gps;
  ModemConfig modem;
  NetworkConfig network;
};

class MobileDevice {
 public:
  explicit MobileDevice(DeviceConfig config = {});

  MobileDevice(const MobileDevice&) = delete;
  MobileDevice& operator=(const MobileDevice&) = delete;

  sim::Scheduler& scheduler() { return scheduler_; }
  sim::Rng& rng() { return rng_; }
  GpsReceiver& gps() { return gps_; }
  CellularModem& modem() { return modem_; }
  SimNetwork& network() { return network_; }
  ContactDatabase& contacts() { return contacts_; }
  CalendarStore& calendar() { return calendar_; }
  const std::string& own_number() const { return own_number_; }

  /// Convenience: run the simulation for a stretch of virtual time.
  void RunFor(sim::SimTime duration) { scheduler_.RunFor(duration); }
  /// Run every pending event, at most `limit` of them (a runaway
  /// guard); whatever a runaway leaves past `limit` is dropped unrun, so
  /// the device is empty on return. Returns the number of events dropped.
  std::size_t RunAll(std::size_t limit = 1'000'000) {
    scheduler_.Run(limit);
    return scheduler_.Clear();
  }

 private:
  sim::Scheduler scheduler_;
  sim::Rng rng_;
  GpsReceiver gps_;
  CellularModem modem_;
  SimNetwork network_;
  ContactDatabase contacts_;
  CalendarStore calendar_;
  std::string own_number_;
};

}  // namespace mobivine::device
