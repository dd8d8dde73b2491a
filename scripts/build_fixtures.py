#!/usr/bin/env python3
"""Build the end-to-end test fixtures in tests/data/.

Produces a tagged corpus with 20 units covering every route through the
cascade, the bilingual dictionary, the document collection backing the
local search backend, a run configuration, the recorded response cache for
offline replays, and a gold grade file. A verification pass runs
``lexiforge extract`` and ``lexiforge translate`` on them and fails loudly if
any unit lands somewhere unintended.

Regenerate with:  python3 scripts/build_fixtures.py
"""

import json
import sys
import tempfile
from pathlib import Path

from lexiforge import cli
from lexiforge.extraction import read_ulcs
from lexiforge.pipeline import read_lexicon

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"

DET = [("la", "le"), ("le", "le"), ("une", "un"), ("un", "un"), ("les", "le")]
VERBS = ["existe", "reste", "compte", "continue", "revient", "demeure", "fonctionne",
         "arrive", "dure", "change", "importe", "surprend"]

# token triples for each unit's corpus realization
UNITS = {
    "caisse claire": [("caisse", "NOUN", "caisse"), ("claire", "ADJ", "clair")],
    "pomme de terre": [("pomme", "NOUN", "pomme"), ("de", "PREP", "de"), ("terre", "NOUN", "terre")],
    "messe de minuit": [("messe", "NOUN", "messe"), ("de", "PREP", "de"), ("minuit", "NOUN", "minuit")],
    "ambiance musicale": [("ambiance", "NOUN", "ambiance"), ("musicale", "ADJ", "musical")],
    "institut de psychologie": [("institut", "NOUN", "institut"), ("de", "PREP", "de"), ("psychologie", "NOUN", "psychologie")],
    "psychologie sociale": [("psychologie", "NOUN", "psychologie"), ("sociale", "ADJ", "social")],
    "drame musical": [("drame", "NOUN", "drame"), ("musical", "ADJ", "musical")],
    "caisse de retraite": [("caisse", "NOUN", "caisse"), ("de", "PREP", "de"), ("retraite", "NOUN", "retraite")],
    "caisse centrale": [("caisse", "NOUN", "caisse"), ("centrale", "ADJ", "central")],
    "accident grave": [("accident", "NOUN", "accident"), ("grave", "ADJ", "grave")],
    "éclat naturel": [("éclat", "NOUN", "éclat"), ("naturel", "ADJ", "naturel")],
    "appareil numérique": [("appareil", "NOUN", "appareil"), ("numérique", "ADJ", "numérique")],
    "analyse de marché": [("analyse", "NOUN", "analyse"), ("de", "PREP", "de"), ("marché", "NOUN", "marché")],
    "appareil de chauffage": [("appareil", "NOUN", "appareil"), ("de", "PREP", "de"), ("chauffage", "NOUN", "chauffage")],
    "acide nucléique": [("acide", "NOUN", "acide"), ("nucléique", "ADJ", "nucléique")],
    "appareil circulaire": [("appareil", "NOUN", "appareil"), ("circulaire", "ADJ", "circulaire")],
    "souris d'agneau": [("souris", "NOUN", "souris"), ("d'", "PREP", "de"), ("agneau", "NOUN", "agneau")],
    "caisse d'épargne": [("caisse", "NOUN", "caisse"), ("d'", "PREP", "de"), ("épargne", "NOUN", "épargne")],
    "fonds d'aide": [("fonds", "NOUN", "fonds"), ("d'", "PREP", "de"), ("aide", "NOUN", "aide")],
    "appareil argentin": [("appareil", "NOUN", "appareil"), ("argentin", "ADJ", "argentin")],
    # spurious unit: frequent in the corpus but too rare on the "web"
    "machine simple": [("machine", "NOUN", "machine"), ("simple", "ADJ", "simple")],
}

EXPECTED = {
    "caisse claire": ("DICTIONARY", "snare drum"),
    "pomme de terre": ("DICTIONARY", "potato"),
    "messe de minuit": ("PHASE1", "midnight mass"),
    "ambiance musicale": ("PHASE1", "musical atmosphere"),
    "institut de psychologie": ("PHASE1", "psychology institute"),
    "psychologie sociale": ("PHASE1", "social psychology"),
    "drame musical": ("PHASE1", "musical drama"),
    "caisse de retraite": ("PHASE2", "retirement fund"),
    "caisse centrale": ("PHASE2", "central fund"),
    "accident grave": ("PHASE2", "serious accident"),
    "éclat naturel": ("PHASE2", "natural shine"),
    "appareil numérique": ("PHASE2", "digital camera"),
    "analyse de marché": ("PHASE2", "market analysis"),
    "appareil de chauffage": ("PHASE2", "heating device"),
    "acide nucléique": ("PHASE3_COGNATE", "nucleic acid"),
    "appareil circulaire": ("PHASE3_COGNATE", "circular device"),
    "souris d'agneau": ("PHASE3_PAIR", "lamb shank"),
    "caisse d'épargne": ("PHASE3_PAIR", "savings bank"),
    "fonds d'aide": ("UNTRANSLATED", None),
    "appareil argentin": ("UNTRANSLATED", None),
}

GOLD_GRADES = {"circular device": "B", "musical drama": "C"}

DICTIONARY = """\
ambiance	NOUN	atmosphere
musical	ADJ	musical
messe	NOUN	mass
minuit	NOUN	midnight
institut	NOUN	institute
psychologie	NOUN	psychology
social	ADJ	social
drame	NOUN	drama
caisse	NOUN	drum|fund|case
retraite	NOUN	retirement|retreat
central	ADJ	central
accident	NOUN	accident
grave	ADJ	serious|solemn
éclat	NOUN	shine|burst
naturel	ADJ	natural
appareil	NOUN	device|camera
numérique	ADJ	digital
analyse	NOUN	analysis|test
marché	NOUN	market|deal
chauffage	NOUN	heating
acide	NOUN	acid
souris	NOUN	mouse
agneau	NOUN	lamb
fonds	NOUN	fund|bottom
aide	NOUN	aid|help
clair	ADJ	clear|light
pomme	NOUN	apple
terre	NOUN	earth|ground
caisse_clair	NOUN	snare drum
pomme_de_terre	NOUN	potato
pension	NOUN	pension
cotisation	NOUN	contribution
argent	NOUN	money
banque	NOUN	bank
crédit	NOUN	credit
financier	ADJ	financial
mensuel	ADJ	monthly
public	ADJ	public
route	NOUN	road
voiture	NOUN	car
victime	NOUN	victim
hôpital	NOUN	hospital
dangereux	ADJ	dangerous
mortel	ADJ	deadly
peau	NOUN	skin
lumière	NOUN	light
beauté	NOUN	beauty
soin	NOUN	care
délicat	ADJ	delicate
doux	ADJ	soft
photo	NOUN	photo
image	NOUN	image
écran	NOUN	screen
pixel	NOUN	pixel
électronique	ADJ	electronic
moderne	ADJ	modern
entreprise	NOUN	company
client	NOUN	customer
vente	NOUN	sale
croissance	NOUN	growth
économique	ADJ	economic
commercial	ADJ	commercial
chaleur	NOUN	heat
radiateur	NOUN	radiator
énergie	NOUN	energy
hiver	NOUN	winter
maison	NOUN	house
chaud	ADJ	hot
électrique	ADJ	electric
molécule	NOUN	molecule
cellule	NOUN	cell
adn	NOUN	dna
biologie	NOUN	biology
génétique	ADJ	genetic
moléculaire	ADJ	molecular
machine	NOUN	machine
mouvement	NOUN	movement
rotation	NOUN	rotation
rond	ADJ	round
mécanique	ADJ	mechanical
viande	NOUN	meat
plat	NOUN	dish
four	NOUN	oven
cuisine	NOUN	kitchen
tendre	ADJ	tender
braisé	ADJ	braised
compte	NOUN	account
livret	NOUN	passbook
intérêt	NOUN	interest
dépôt	NOUN	deposit
bancaire	ADJ	banking
postal	ADJ	postal
"""

# (doc id, lang, text); French pages open with an article so the
# article-preceded web filter finds each unit.
DOCS = [
    # dictionary units: enough web presence to pass extraction
    ("fr-cc-1", "fr", "La caisse claire donne le rythme du concert."),
    ("fr-cc-2", "fr", "Une caisse claire et une batterie pour l'orchestre."),
    ("fr-pt-1", "fr", "La pomme de terre reste un plat de la cuisine."),
    ("fr-pt-2", "fr", "Une pomme de terre au four avec la viande."),
    # messe de minuit (phase 1)
    ("fr-mm-1", "fr", "La messe de minuit rassemble la paroisse à noël."),
    ("fr-mm-2", "fr", "Une messe de minuit avec une prière et l'église pleine."),
    ("en-mm-1", "en", "Families attend the midnight mass at church on christmas eve."),
    ("en-mm-2", "en", "The midnight mass ends with a prayer at the church."),
    # ambiance musicale (phase 1)
    ("fr-am-1", "fr", "L'ambiance musicale du concert plaît au public."),
    ("fr-am-2", "fr", "Une ambiance musicale douce dans la salle."),
    ("en-am-1", "en", "The musical atmosphere of the concert delights the hall."),
    ("en-am-2", "en", "Critics praised a musical atmosphere full of warmth."),
    # institut de psychologie (phase 1): noun-noun order beats the of-form
    ("fr-ip-1", "fr", "L'institut de psychologie forme des étudiants."),
    ("fr-ip-2", "fr", "Un institut de psychologie ouvre dans la ville."),
    ("en-ip-1", "en", "The psychology institute opened a new laboratory."),
    ("en-ip-2", "en", "Students joined the psychology institute this year."),
    ("en-ip-3", "en", "Research thrives at the psychology institute downtown."),
    ("en-ip-4", "en", "She directs the institute of psychology in the capital."),
    # psychologie sociale (phase 1)
    ("fr-ps-1", "fr", "La psychologie sociale étudie les groupes."),
    ("fr-ps-2", "fr", "Une psychologie sociale du comportement collectif."),
    ("en-ps-1", "en", "The social psychology department studies group behavior."),
    ("en-ps-2", "en", "He teaches the social psychology course this term."),
    # drame musical (phase 1)
    ("fr-dm-1", "fr", "Le drame musical occupe la scène du théâtre."),
    ("fr-dm-2", "fr", "Un drame musical avec un orchestre complet."),
    ("en-dm-1", "en", "The musical drama played at the theatre all winter."),
    ("en-dm-2", "en", "Audiences loved the musical drama and its score."),
    # caisse de retraite (phase 2): fund survives, case dies on the ratio
    ("fr-cr-1", "fr", "La caisse de retraite verse une pension et une cotisation mensuelle."),
    ("fr-cr-2", "fr", "La caisse de retraite place l'argent à la banque financière."),
    ("fr-cr-3", "fr", "Une caisse de retraite gère la pension et la cotisation."),
    ("mx-cr-1", "en", "The caisse de retraite is a retirement fund paying each pension."),
    ("mx-cr-2", "en", "A caisse de retraite is not a retirement case at court."),
    ("en-cr-1", "en", "The retirement fund pays a monthly pension from contribution income."),
    ("en-cr-2", "en", "Our retirement fund keeps money at the financial bank."),
    ("en-cr-3", "en", "A retirement fund invests each contribution with care."),
    ("en-cr-4", "en", "The retirement fund reported monthly growth of pension money."),
    ("en-cr-5", "en", "Savers trust the retirement fund and its financial bank."),
    # caisse centrale (phase 2)
    ("fr-cce-1", "fr", "La caisse centrale garde l'argent et le crédit de la banque."),
    ("fr-cce-2", "fr", "Une caisse centrale publique pour le crédit financier."),
    ("mx-cce-1", "en", "The caisse centrale acts as the central fund for public credit."),
    ("en-cce-1", "en", "The central fund manages money and credit for each bank."),
    ("en-cce-2", "en", "A central fund backs the public bank with credit."),
    ("en-cce-3", "en", "The central fund holds financial money in reserve."),
    ("en-cce-4", "en", "Auditors reviewed the central fund and its public credit."),
    # accident grave (phase 2)
    ("fr-ag-1", "fr", "L'accident grave bloque la route dangereuse et une voiture."),
    ("fr-ag-2", "fr", "Un accident grave mortel envoie la victime à l'hôpital."),
    ("mx-ag-1", "en", "L'accident grave, a serious accident, closed the dangerous road."),
    ("en-ag-1", "en", "The serious accident left a victim on the road."),
    ("en-ag-2", "en", "A serious accident sent the car driver to hospital."),
    ("en-ag-3", "en", "Police called it a serious accident on a dangerous road."),
    ("en-ag-4", "en", "The serious accident proved deadly for one victim."),
    # éclat naturel (phase 2)
    ("fr-en-1", "fr", "L'éclat naturel de la peau vient de la lumière."),
    ("fr-en-2", "fr", "Un éclat naturel et doux pour la beauté du visage."),
    ("mx-en-1", "en", "L'éclat naturel, the natural shine, suits delicate skin."),
    ("en-en-1", "en", "The natural shine gives skin a soft light."),
    ("en-en-2", "en", "A natural shine highlights delicate beauty with care."),
    ("en-en-3", "en", "Get the natural shine with soft skin care."),
    ("en-en-4", "en", "Her hair kept a natural shine and delicate light."),
    # appareil numérique (phase 2)
    ("fr-an-1", "fr", "L'appareil numérique enregistre la photo et l'image."),
    ("fr-an-2", "fr", "Un appareil numérique moderne avec un écran et des pixels."),
    ("mx-an-1", "en", "L'appareil numérique, the digital camera, stores each photo."),
    ("en-an-1", "en", "The digital camera saves the photo to a modern screen."),
    ("en-an-2", "en", "A digital camera with an electronic screen and image sensor."),
    ("en-an-3", "en", "The digital camera counts every pixel of the image."),
    ("en-an-4", "en", "Reviewers liked the digital camera and its modern screen."),
    # analyse de marché (phase 2)
    ("fr-ma-1", "fr", "L'analyse de marché guide l'entreprise et la vente."),
    ("fr-ma-2", "fr", "Une analyse de marché mesure la croissance économique et le client."),
    ("mx-ma-1", "en", "L'analyse de marché, the market analysis, guides the company."),
    ("en-ma-1", "en", "The market analysis tracks sale growth for the company."),
    ("en-ma-2", "en", "A market analysis profiles each customer and sale."),
    ("en-ma-3", "en", "The market analysis predicts economic growth this year."),
    ("en-ma-4", "en", "Investors read the market analysis before a commercial deal."),
    # appareil de chauffage (phase 2)
    ("fr-ac-1", "fr", "L'appareil de chauffage garde la chaleur de la maison en hiver."),
    ("fr-ac-2", "fr", "Un appareil de chauffage électrique avec un radiateur chaud."),
    ("mx-ac-1", "en", "L'appareil de chauffage, a heating device, warms the house."),
    ("en-ac-1", "en", "The heating device spreads heat through the house in winter."),
    ("en-ac-2", "en", "A heating device with an electric radiator keeps rooms hot."),
    ("en-ac-3", "en", "The heating device saves energy during a cold winter."),
    ("en-ac-4", "en", "Install the heating device near the radiator for more heat."),
    # acide nucléique (phase 3, cognates)
    ("fr-nu-1", "fr", "L'acide nucléique est une molécule de la cellule."),
    ("fr-nu-2", "fr", "Un acide nucléique porte l'adn et l'information génétique."),
    ("mx-nu-1", "en", "Acide nucléique translates as nucleic acid in molecular biology."),
    ("mx-nu-2", "en", "The term acide nucléique names the nucleic acid inside a cell."),
    ("mx-nu-3", "en", "Students learn acide nucléique when the nucleic acid chapter begins."),
    ("en-nu-1", "en", "The nucleic acid stores genetic data in every cell."),
    ("en-nu-2", "en", "A nucleic acid molecule carries dna through the cell."),
    ("en-nu-3", "en", "Researchers isolated the nucleic acid in a molecular laboratory."),
    # appareil circulaire (phase 3, cognates)
    ("fr-ci-1", "fr", "L'appareil circulaire tourne avec un mouvement rond."),
    ("fr-ci-2", "fr", "Un appareil circulaire entraîne la rotation de la machine."),
    ("mx-ci-1", "en", "Appareil circulaire refers to the circular device on this machine."),
    ("mx-ci-2", "en", "Manuals render appareil circulaire as circular device for rotation work."),
    ("mx-ci-3", "en", "Engineers say appareil circulaire when the circular device spins."),
    ("en-ci-1", "en", "The circular device drives the rotation of the machine."),
    ("en-ci-2", "en", "A circular device with round mechanical movement."),
    ("en-ci-3", "en", "The circular device keeps the machine in steady rotation."),
    # souris d'agneau (phase 3, frequent pairs; no cognate anchors)
    ("fr-sa-1", "fr", "La souris d'agneau est une viande tendre du four."),
    ("fr-sa-2", "fr", "Une souris d'agneau braisée avec un plat de la cuisine."),
    ("mx-sa-1", "en", "Souris d'agneau means braised lamb shank on our menu."),
    ("mx-sa-2", "en", "Order the souris d'agneau: tender lamb shank in wine."),
    ("mx-sa-3", "en", "Our souris d'agneau offers lamb shank cooked slowly."),
    ("en-sa-1", "en", "The lamb shank rests on a dish of tender meat."),
    ("en-sa-2", "en", "A lamb shank from the oven, braised and tender."),
    ("en-sa-3", "en", "This lamb shank recipe needs meat, an oven and patience."),
    # caisse d'épargne (phase 3, frequent pairs)
    ("fr-ce-1", "fr", "La caisse d'épargne ouvre un compte et un livret."),
    ("fr-ce-2", "fr", "Une caisse d'épargne postale verse l'intérêt du dépôt bancaire."),
    ("mx-ce-1", "en", "Caisse d'épargne denotes a savings bank with passbook accounts."),
    ("mx-ce-2", "en", "Open the savings bank account a caisse d'épargne offers."),
    ("mx-ce-3", "en", "Every caisse d'épargne works like the savings bank nearby."),
    ("en-ce-1", "en", "The savings bank pays interest on every deposit."),
    ("en-ce-2", "en", "A savings bank issues a passbook for the account."),
    ("en-ce-3", "en", "The savings bank counts each banking deposit with interest."),
    # fonds d'aide: web presence, but no mixed pages -> untranslated
    ("fr-fa-1", "fr", "Le fonds d'aide soutient les projets de la ville."),
    ("fr-fa-2", "fr", "Un fonds d'aide pour les victimes existe."),
    # appareil argentin: web presence, no mixed pages -> untranslated
    ("fr-aa-1", "fr", "L'appareil argentin fonctionne dans la capitale."),
    ("fr-aa-2", "fr", "Un appareil argentin de mesure arrive."),
    # machine simple: one page only -> rejected by the web filter
    ("fr-ms-1", "fr", "La machine simple tourne encore."),
]


def build_corpus() -> str:
    lines = []
    doc = 0
    sentence_count = 0
    lines.append(f"#DOC web-{doc}")
    for idx, (surface, tokens) in enumerate(UNITS.items()):
        occurrences = 10 + (idx % 3)
        for i in range(occurrences):
            det_surface, det_lemma = DET[(idx + i) % len(DET)]
            verb = VERBS[(idx * 3 + i) % len(VERBS)]
            lines.append(f"{det_surface}\tDET\t{det_lemma}")
            for t_surface, t_pos, t_lemma in tokens:
                lines.append(f"{t_surface}\t{t_pos}\t{t_lemma}")
            lines.append(f"{verb}\tVERB\t{verb}")
            lines.append(".\tSENT\t.")
            sentence_count += 1
            if sentence_count % 12 == 0:
                doc += 1
                lines.append(f"#DOC web-{doc}")
    return "\n".join(lines) + "\n"


RUN_CONFIG = """\
# desk-scale web thresholds for the bundled fixture collection
extract.corpus_freq_min = 10
extract.literal_freq_min = 2
extract.article_freq_min = 1
lang.source = fr
lang.target = en
pipeline.workers = 4
"""


def lexiforge(*argv) -> None:
    """Run one ``lexiforge`` command; stop unless it exits 0."""
    code = cli.main([str(arg) for arg in argv])
    if code != 0:
        sys.exit(f"lexiforge {argv[0]} exited {code}")


def record_and_verify():
    """Run extract and translate on the fixtures against the local backend,
    recording every answer in e2e.cache, and check each unit's outcome."""
    cache_path = DATA_DIR / "e2e.cache"
    cache_path.unlink(missing_ok=True)
    ulcs = DATA_DIR / "ulcs.tsv"
    common = ["--config", DATA_DIR / "run.config", "--backend", "local",
              "--docs", DATA_DIR / "docs.jsonl", "--cache", cache_path]
    lexiforge("extract", *common, "--corpus", DATA_DIR / "corpus.tsv", "--out", ulcs)
    # every unit but "machine simple", which the web filter rejects
    kept = {unit.surface for unit in read_ulcs(ulcs)}
    assert kept == set(EXPECTED), sorted(kept ^ set(EXPECTED))

    with tempfile.TemporaryDirectory() as out_dir:
        lexiforge("translate", *common, "--ulcs", ulcs, "--dictionary", DATA_DIR / "dictionary.tsv",
                  "--out-dir", out_dir)
        rows = read_lexicon(Path(out_dir) / "lexicon.tsv")

    failures = []
    for surface, translation, phase in rows:
        expected_phase, expected_translation = EXPECTED[surface]
        if (phase.value, translation) != (expected_phase, expected_translation):
            failures.append(f"{surface}: expected {expected_phase}/{expected_translation}, "
                            f"got {(phase.value, translation)}")
        print(f"  {surface:28s} -> {phase.value:15s} {translation}")
    if failures:
        sys.exit("FIXTURE VERIFICATION FAILED:\n" + "\n".join(failures))

    gold_lines = [
        f"{surface}\t{translation}\t{GOLD_GRADES.get(translation, 'A')}"
        for surface, translation, _ in rows
        if translation is not None
    ]
    (DATA_DIR / "gold.tsv").write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
    # Workers record in scheduling order; sorting by key makes the file
    # the same on every regeneration.
    lexiforge("cache", "compact", cache_path)


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    (DATA_DIR / "corpus.tsv").write_text(build_corpus(), encoding="utf-8")
    (DATA_DIR / "dictionary.tsv").write_text(DICTIONARY, encoding="utf-8")
    with open(DATA_DIR / "docs.jsonl", "w", encoding="utf-8") as fh:
        for doc_id, lang, text in DOCS:
            fh.write(json.dumps({"id": doc_id, "lang": lang, "text": text}, ensure_ascii=False) + "\n")
    (DATA_DIR / "run.config").write_text(RUN_CONFIG, encoding="utf-8")
    record_and_verify()
    print("fixtures written to", DATA_DIR)


if __name__ == "__main__":
    main()
