// Fixture: malformed allow markers, each a `bad-allow-marker` finding.

// norns-lint: allow(unsafe-safety-comment):
fn missing_reason() {}

// norns-lint: allow(no-such-rule): because I said so
fn unknown_rule() {}

// norns-lint: deny(whatever)
fn malformed() {}

// norns-lint: allow(sites): a row is edited, not waived
fn unwaivable() {}
