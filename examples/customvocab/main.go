// Custom vocabulary: SemTree on a different domain. The paper's
// introduction motivates medical records alongside requirements; this
// example defines a clinical taxonomy in the textual vocabulary format,
// registers it, and finds contradicting orders (prescribe vs
// discontinue the same drug for the same patient) — the same antinomy
// machinery as the avionics case study, zero code changes.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	semtree "semtree"
	"semtree/internal/reqcheck"
	"semtree/internal/triple"
	"semtree/internal/vocab"
)

const clinicalActions = `
vocab Act clinical_action
concept medication_order clinical_action
concept prescribe medication_order
concept discontinue medication_order
concept increase_dose medication_order
concept decrease_dose medication_order
antonym prescribe discontinue
antonym increase_dose decrease_dose
concept admission_order clinical_action
concept admit admission_order
concept discharge admission_order
antonym admit discharge
concept monitoring_order clinical_action
concept order_lab monitoring_order
concept cancel_lab monitoring_order
antonym order_lab cancel_lab
freq prescribe 300
freq discontinue 80
freq admit 120
freq discharge 110
`

const clinicalParams = `
vocab Param clinical_parameter
concept drug clinical_parameter
concept anticoagulant drug
concept warfarin anticoagulant
concept heparin anticoagulant
concept antibiotic drug
concept amoxicillin antibiotic
concept vancomycin antibiotic
concept unit clinical_parameter
concept icu unit
concept cardiology_ward unit
concept lab_test clinical_parameter
concept inr_test lab_test
concept blood_culture lab_test
freq warfarin 90
freq heparin 60
freq amoxicillin 150
`

func main() {
	acts, err := vocab.ParseVocabulary(strings.NewReader(clinicalActions))
	if err != nil {
		log.Fatal(err)
	}
	params, err := vocab.ParseVocabulary(strings.NewReader(clinicalParams))
	if err != nil {
		log.Fatal(err)
	}
	reg := vocab.NewRegistry(acts, params)

	store := triple.NewStore()
	records := []struct{ rec, line string }{
		{"REC-104", "('patient_88', Act:prescribe, Param:warfarin)"},
		{"REC-104", "('patient_88', Act:order_lab, Param:inr_test)"},
		{"REC-219", "('patient_88', Act:discontinue, Param:warfarin)"},
		{"REC-219", "('patient_31', Act:admit, Param:icu)"},
		{"REC-305", "('patient_31', Act:discharge, Param:icu)"},
		{"REC-305", "('patient_42', Act:prescribe, Param:amoxicillin)"},
		{"REC-412", "('patient_42', Act:increase_dose, Param:amoxicillin)"},
	}
	for _, r := range records {
		t, err := triple.ParseTriple(r.line)
		if err != nil {
			log.Fatal(err)
		}
		store.Add(t, triple.Provenance{Doc: r.rec})
	}

	idx, err := semtree.Build(store, semtree.Options{Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()
	fmt.Printf("indexed %d clinical assertions over vocabularies %v\n\n",
		idx.Len(), reg.Prefixes())

	checker := reqcheck.NewChecker(reqcheck.SemTree(idx.Searcher()), reg)
	fmt.Println("contradiction scan:")
	store.Each(func(id triple.ID, e triple.Entry) bool {
		cands, ok, err := checker.Candidates(context.Background(), e.Triple, 3)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			return true
		}
		for _, c := range checker.Confirmed(e.Triple, cands, store) {
			if c > id { // report each pair once
				other, _ := store.Get(c)
				fmt.Printf("  %s [%s]\n  conflicts with\n  %s [%s]\n\n",
					e.Triple, e.Prov.Doc, other.Triple, other.Prov.Doc)
			}
		}
		return true
	})
}
