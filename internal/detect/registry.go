package detect

import "strings"

// Canonical scheme names: what Detector.Name and Alarm.Detector report, and
// what reports, the experiment grid and cloud-simulator scenarios use.
const (
	NameSDS      = "SDS"
	NameSDSB     = "SDS/B"
	NameSDSP     = "SDS/P"
	NameKSTest   = "KStest"
	NameCUSUM    = "CUSUM"
	NameTimeFrag = "TimeFrag"
	NameEWMAVar  = "EWMAVar"
)

// Params carries everything a registry constructor may consume. Each
// scheme reads only what it needs: window schemes the profile and Config,
// the KStest baseline KSTest, Throttler (nil when throttling is accounted
// for externally) and KSOptions.
type Params struct {
	Profile   Profile
	Config    Config
	KSTest    KSTestConfig
	Throttler Throttler
	KSOptions []KSTestOption
}

// Scheme is one registry entry: a detection scheme's names, constructor
// and the capabilities callers dispatch on.
type Scheme struct {
	// Name is the canonical name ("SDS/B").
	Name string
	// Alias is the lowercase wire name the detection server's handshake
	// and the command-line tools use ("sdsb").
	Alias string
	// Window reports that the detector implements WindowObserver, so the
	// cloud simulator can feed it window-level moving averages.
	Window bool
	// Throttled reports that the scheme collects its own reference by
	// pausing co-located VMs through a Throttler. Such a scheme learns
	// online from raw samples and needs no Stage-1 profile.
	Throttled bool
	// Periodic reports that the scheme requires a periodic profile.
	Periodic bool
	// New builds the detector.
	New func(Params) (Detector, error)
}

// registry lists every scheme in evaluation order.
var registry = []Scheme{
	{Name: NameSDS, Alias: "sds", Window: true,
		New: func(p Params) (Detector, error) { return NewSDS(p.Profile, p.Config) }},
	{Name: NameSDSB, Alias: "sdsb", Window: true,
		New: func(p Params) (Detector, error) { return NewSDSB(p.Profile, p.Config) }},
	{Name: NameSDSP, Alias: "sdsp", Window: true, Periodic: true,
		New: func(p Params) (Detector, error) { return NewSDSP(p.Profile, p.Config) }},
	{Name: NameKSTest, Alias: "kstest", Throttled: true,
		New: func(p Params) (Detector, error) { return NewKSTest(p.KSTest, p.Throttler, p.KSOptions...) }},
	{Name: NameCUSUM, Alias: "cusum", Window: true,
		New: func(p Params) (Detector, error) { return NewCUSUM(p.Profile, p.Config) }},
	{Name: NameTimeFrag, Alias: "timefrag", Window: true,
		New: func(p Params) (Detector, error) { return NewTimeFrag(p.Profile, p.Config) }},
	{Name: NameEWMAVar, Alias: "ewmavar", Window: true,
		New: func(p Params) (Detector, error) { return NewEWMAVar(p.Profile, p.Config) }},
}

// Schemes returns every registered scheme in evaluation order.
func Schemes() []Scheme { return append([]Scheme(nil), registry...) }

// LookupScheme resolves a canonical name or a wire alias.
func LookupScheme(name string) (Scheme, bool) {
	for _, s := range registry {
		if name == s.Name || name == s.Alias {
			return s, true
		}
	}
	return Scheme{}, false
}

// SchemeNames lists the registry's canonical names ("SDS, SDS/B, …"), or
// its wire aliases when alias is set, for usage and error messages.
func SchemeNames(alias bool) string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
		if alias {
			names[i] = s.Alias
		}
	}
	return strings.Join(names, ", ")
}
