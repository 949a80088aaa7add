package datagen

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/tasks"
)

// concept is one latent schema attribute with its surface name variants and
// description variants. Concepts in the same group are semantically related
// but NOT equivalent (start vs end dates, different coding systems) — the
// hard negatives the CMS knowledge in Table VIII warns about.
type concept struct {
	names []string
	descs []string
	group string
}

var medicalConcepts = []concept{
	{[]string{"patient_id", "subject_id", "person_id"},
		[]string{"unique identifier of the patient", "primary key identifying a person receiving care"}, "id"},
	{[]string{"provider_id", "physician_id", "attending_id"},
		[]string{"identifier of the treating clinician", "key of the attending provider"}, "id"},
	{[]string{"birth_date", "dob", "date_of_birth"},
		[]string{"date the patient was born", "patient birth date in YYYY-MM-DD"}, "date"},
	{[]string{"admission_date", "admit_dt", "clm_admsn_dt", "start_date"},
		[]string{"date the stay began", "claim admission date", "start date of the episode"}, "date-start"},
	{[]string{"discharge_date", "disch_dt", "nch_bene_dschrg_dt", "end_date"},
		[]string{"date the stay ended", "discharge date of the beneficiary", "end date of the episode"}, "date-end"},
	{[]string{"diagnosis_code", "icd9_code", "dx_code"},
		[]string{"ICD9 code of the diagnosis", "diagnosis code assigned at discharge"}, "code-dx"},
	{[]string{"procedure_code", "icd9_prcdr_cd", "px_code"},
		[]string{"ICD9 procedure code", "code of the performed procedure"}, "code-px"},
	{[]string{"ethnicity_code", "race_cd", "bene_race_cd"},
		[]string{"coded ethnicity of the patient", "race code of the beneficiary"}, "code-demo"},
	{[]string{"gender", "sex", "bene_sex_ident_cd"},
		[]string{"administrative gender of the patient", "sex identification code"}, "demo"},
	{[]string{"facility_id", "hospital_id", "prvdr_num"},
		[]string{"identifier of the care facility", "provider number of the institution"}, "id-fac"},
	{[]string{"total_charge", "clm_pmt_amt", "claim_amount"},
		[]string{"total amount charged for the claim", "payment amount of the claim"}, "amount"},
	{[]string{"deductible_amount", "nch_bene_ip_ddctbl_amt"},
		[]string{"deductible owed by the beneficiary", "inpatient deductible amount"}, "amount"},
	{[]string{"state_code", "sp_state_code", "prvdr_state_cd"},
		[]string{"state where care was delivered", "state code of the provider"}, "geo"},
	{[]string{"county_code", "bene_county_cd"},
		[]string{"county of residence", "beneficiary county code"}, "geo"},
	{[]string{"drg_code", "clm_drg_cd"},
		[]string{"diagnosis related group of the claim", "DRG code for payment"}, "code-drg"},
	{[]string{"hcpcs_code", "hcpcs_cd", "service_code"},
		[]string{"HCPCS code of the service line", "procedure coding for outpatient services"}, "code-svc"},
}

// smPair renders a schema-matching pair instance.
func smPair(rng *rand.Rand, id string, concepts []concept, positive bool) *data.Instance {
	ci := rng.Intn(len(concepts))
	c := concepts[ci]
	aName := pick(rng, c.names)
	aDesc := pick(rng, c.descs)
	var bName, bDesc string
	if positive {
		bName = pickOther(rng, c.names, aName)
		bDesc = pick(rng, c.descs)
	} else {
		var d concept
		if maybe(rng, 0.6) {
			// Hard negative: same group, different concept (e.g. admission
			// vs discharge date) — textually similar, semantically distinct.
			var candidates []int
			for j, other := range concepts {
				if j != ci && other.group == c.group {
					candidates = append(candidates, j)
				}
			}
			if len(candidates) > 0 {
				d = concepts[candidates[rng.Intn(len(candidates))]]
			} else {
				d = concepts[(ci+1+rng.Intn(len(concepts)-1))%len(concepts)]
			}
		} else {
			d = concepts[(ci+1+rng.Intn(len(concepts)-1))%len(concepts)]
		}
		bName = pick(rng, d.names)
		bDesc = pick(rng, d.descs)
	}
	fields := []data.Field{
		{Entity: "A", Name: "column", Value: aName},
		{Entity: "A", Name: "description", Value: aDesc},
		{Entity: "B", Name: "column", Value: bName},
		{Entity: "B", Name: "description", Value: bDesc},
	}
	gold := 1
	if positive {
		gold = 0
	}
	return &data.Instance{
		ID:         id,
		Fields:     fields,
		Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
		Gold:       gold,
	}
}

func smDataset(rng *rand.Rand, name string, train, test int, posRate float64, concepts []concept) *data.Dataset {
	ds := &data.Dataset{Name: name, Task: string(tasks.SM)}
	for i := 0; i < train+test; i++ {
		in := smPair(rng, fmt.Sprintf("%s-%d", name, i), concepts, maybe(rng, posRate))
		if i < train {
			ds.Train = append(ds.Train, in)
		} else {
			ds.Test = append(ds.Test, in)
		}
	}
	return ds
}

func genMIMICSM(rng *rand.Rand, train, test int, posRate float64) *Bundle {
	// The real MIMIC split is extremely imbalanced (11/7000); we keep it
	// rare but learnable.
	ds := smDataset(rng, "MIMIC", train, test, posRate*20, medicalConcepts[:10])
	return &Bundle{DS: ds, Kind: tasks.SM, Seed: &tasks.Knowledge{
		Text: "Decide if the two columns describe the same clinical attribute.",
	}}
}

func genSyntheaSM(rng *rand.Rand, train, test int, posRate float64) *Bundle {
	ds := smDataset(rng, "Synthea", train, test, posRate*20, medicalConcepts[4:])
	return &Bundle{DS: ds, Kind: tasks.SM, Seed: &tasks.Knowledge{
		Text: "Decide if the two columns describe the same attribute of the synthetic health records.",
	}}
}

// genCMSSM (downstream): Medicare claims schema matching, drawing on the
// same clinical concept space as the upstream MIMIC/Synthea datasets — the
// overlap that makes their SKC knowledge patches transferable.
func genCMSSM(rng *rand.Rand, train, test int) *Bundle {
	ds := smDataset(rng, "CMS", train, test, 0.09, medicalConcepts)
	return &Bundle{DS: ds, Kind: tasks.SM, Seed: &tasks.Knowledge{
		Text: "Decide if the two claim columns are semantically equivalent.",
	}}
}
