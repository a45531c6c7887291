// The metric-name catalogue fixture: every name the fixture app registers
// must be declared here, and a declared name nothing reads is flagged.
package obs

const (
	Good      = "dmv_good_total"      // read: app indexes a snapshot map with it
	PrefixFam = "dmv_fam_"            // read: app filters series on the family prefix
	Loaded    = "dmv_loaded_total"    // read: registered and read on the spot with .Load()
	Snapped   = "dmv_snapped_us"      // read: registered and read on the spot with .Snapshot()
	TestRead  = "dmv_test_read_total" // read only by a _test.go file
	Fed       = "dmv_fed_total"       // want `metric name constant Fed is declared in names\.go but nothing reads it`
	Dead      = "dmv_dead_total"      // want `metric name constant Dead is declared in names\.go but nothing reads it`
	OwnRead   = "dmv_own_read_total"  // want `metric name constant OwnRead is declared in names\.go but nothing reads it`

	//dmv:ignore(metricname) fixture: demonstrating a suppressed unread name
	Parked = "dmv_parked_total"
)
