package fleet

// Policy returns the named policy's report, or nil.
func (r *Report) Policy(name string) *PolicyReport {
	for i := range r.Policies {
		if r.Policies[i].Policy == name {
			return &r.Policies[i]
		}
	}
	return nil
}
